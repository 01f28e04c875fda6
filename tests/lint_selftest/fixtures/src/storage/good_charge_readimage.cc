// dpcf-charge-conservation clean fixture: the ReadImage caller charges
// IoStats (here the readahead-backpressure counter) before any return,
// so the page access stays visible to the accounting.

struct PageId {
  unsigned segment = 0;
  unsigned page_no = 0;
};

enum class ReadClass { kDemand, kPrefetch };

struct Status {
  bool ok() const { return code == 0; }
  int code = 0;
};

Status ReadImage(PageId pid, ReadClass cls);

namespace dpcf {

struct IoStats {
  long long prefetch_reads = 0;
  long long prefetch_rejected = 0;
};

bool WarmFrame(PageId pid, IoStats* io) {
  Status st = ReadImage(pid, ReadClass::kPrefetch);
  if (st.ok()) {
    ++io->prefetch_reads;
  } else {
    ++io->prefetch_rejected;
  }
  return st.ok();
}

}  // namespace dpcf
