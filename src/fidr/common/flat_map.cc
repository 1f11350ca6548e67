#include "fidr/common/flat_map.h"

#include <sys/mman.h>

#include "fidr/common/status.h"

namespace fidr::detail {

void *
allocate_cells(std::size_t bytes)
{
    if (bytes < kMappedCellBytes)
        return ::operator new(bytes);
    void *cells = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    FIDR_CHECK(cells != MAP_FAILED);
    return cells;
}

void
free_cells(void *cells, std::size_t bytes)
{
    if (bytes < kMappedCellBytes)
        ::operator delete(cells);
    else
        ::munmap(cells, bytes);
}

}  // namespace fidr::detail
