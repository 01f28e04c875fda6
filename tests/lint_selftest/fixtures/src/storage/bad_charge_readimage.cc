// dpcf-charge-conservation fixture: ReadImage is the disk manager's
// page-image reader (it hands out a page's stored image), so a caller
// whose return path charges neither IoStats nor CpuStats hides a page
// access from the accounting.

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

bool WarmFrame(PageId pid) {
  Status st = ReadImage(pid, ReadClass::kPrefetch);
  return st.ok();  // bad: the page read is never charged
}

}  // namespace dpcf
