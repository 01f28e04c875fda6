// dpcf-charge-conservation fixture: CopyPageImage is the disk
// manager's page-image reader (it materializes a page into a caller
// frame), so a caller whose return path charges neither IoStats nor
// CpuStats hides a page access from the accounting.

struct PageId {
  unsigned segment = 0;
  unsigned page_no = 0;
};

enum class ReadClass { kDemand, kPrefetch };

struct Status {
  bool ok() const { return code == 0; }
  int code = 0;
};

Status CopyPageImage(PageId pid, char* dst, ReadClass cls);

namespace dpcf {

bool WarmFrame(PageId pid, char* dst) {
  Status st = CopyPageImage(pid, dst, ReadClass::kPrefetch);
  return st.ok();  // bad: the page read is never charged
}

}  // namespace dpcf
