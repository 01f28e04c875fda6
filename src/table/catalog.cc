#include "table/catalog.h"

#include "common/string_util.h"
#include "exec/simd.h"

namespace dpcf {

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table " + name);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

Status Catalog::AddIndex(std::unique_ptr<Index> index) {
  const std::string& name = index->name();
  if (indexes_.count(name) != 0) {
    return Status::AlreadyExists("index " + name);
  }
  indexes_[name] = std::move(index);
  return Status::OK();
}

Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Index* Catalog::GetIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<Index*> Catalog::IndexesForTable(const Table* table) const {
  std::vector<Index*> out;
  for (const auto& [name, idx] : indexes_) {
    if (idx->table() == table) out.push_back(idx.get());
  }
  return out;
}

std::vector<Table*> Catalog::Tables() const {
  std::vector<Table*> out;
  for (const auto& [name, t] : tables_) out.push_back(t.get());
  return out;
}

std::vector<Index*> Catalog::Indexes() const {
  std::vector<Index*> out;
  for (const auto& [name, i] : indexes_) out.push_back(i.get());
  return out;
}

Database::Database(DatabaseOptions options)
    : options_(options),
      disk_(DiskManagerOptions{options.page_size, options.io_threads}),
      pool_(&disk_, options.buffer_pool_pages) {
  MetricsRegistry* registry =
      options_.observability.metrics ? &metrics_ : nullptr;
  disk_.AttachMetrics(registry, journal());
  pool_.AttachObservability(registry, &trace_, journal());
  if (registry != nullptr) {
    // Info gauge: constant 1, the label names the SIMD ISA the predicate
    // kernels dispatched to (exec/simd.h) — so a metrics scrape can tell
    // whether a perf regression line ran scalar or vectorized.
    registry
        ->GetGauge("dpcf_simd_dispatch_info",
                   "active SIMD ISA for predicate kernels (label isa)",
                   {{"isa", SimdIsaName(ActiveSimdIsa())}})
        ->Set(1.0);
  }
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema,
                                     TableOrganization organization,
                                     int cluster_key_col) {
  if (organization == TableOrganization::kClustered) {
    if (cluster_key_col < 0 ||
        cluster_key_col >= static_cast<int>(schema.num_columns())) {
      return Status::InvalidArgument(
          StrFormat("clustered table %s needs a valid clustering column",
                    name.c_str()));
    }
  } else {
    cluster_key_col = -1;
  }
  SegmentId segment = disk_.CreateSegment("table:" + name);
  auto table = std::make_unique<Table>(
      name, std::make_unique<Schema>(std::move(schema)), organization,
      cluster_key_col, &pool_, segment);
  Table* raw = table.get();
  DPCF_RETURN_IF_ERROR(catalog_.AddTable(std::move(table)));
  return raw;
}

Result<Index*> Database::CreateIndex(const std::string& name,
                                     const std::string& table_name,
                                     const std::vector<int>& key_cols,
                                     bool is_clustered_key) {
  Table* table = catalog_.GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  DPCF_ASSIGN_OR_RETURN(
      std::unique_ptr<Index> index,
      Index::Build(&pool_, table, name, key_cols, is_clustered_key));
  Index* raw = index.get();
  DPCF_RETURN_IF_ERROR(catalog_.AddIndex(std::move(index)));
  return raw;
}

Result<Index*> Database::CreateIndex(
    const std::string& name, const std::string& table_name,
    const std::vector<std::string>& key_col_names, bool is_clustered_key) {
  Table* table = catalog_.GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table " + table_name);
  }
  std::vector<int> cols;
  for (const std::string& cn : key_col_names) {
    int c = table->schema().ColumnIndex(cn);
    if (c < 0) {
      return Status::NotFound(
          StrFormat("column %s in table %s", cn.c_str(),
                    table_name.c_str()));
    }
    cols.push_back(c);
  }
  return CreateIndex(name, table_name, cols, is_clustered_key);
}

Status Database::ColdCache() {
  DPCF_RETURN_IF_ERROR(pool_.ColdReset());
  disk_.io_stats()->Reset();
  return Status::OK();
}

}  // namespace dpcf
