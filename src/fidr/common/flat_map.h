/**
 * @file
 * Allocation-free open-addressing hash map for small, copyable keys
 * and values on hot paths: the chunk-cache indexes, the NIC's LBA
 * lookup, the LBA-PBA table and the SSD model's page table.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace fidr {

/** splitmix64 finalizer: spreads sequential or strided 64-bit keys
 *  over every bit, so a power-of-two mask can use the low ones. */
struct Mix64Hash {
    std::size_t
    operator()(std::uint64_t x) const
    {
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBull;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }
};

namespace detail {

/** Cell arrays this large or larger come straight from mmap. */
inline constexpr std::size_t kMappedCellBytes = 64 * 1024;

/**
 * Raw storage for a FlatMap cell array.  Arrays of kMappedCellBytes or
 * more are anonymous mappings, returned to the kernel when freed:
 * freeing a malloc block of 128 KiB or more raises glibc's dynamic
 * mmap threshold, after which a growing table's large blocks stay
 * resident in the arena of the thread that freed them.
 */
void *allocate_cells(std::size_t bytes);
void free_cells(void *cells, std::size_t bytes);

}  // namespace detail

/**
 * Open-addressing Key -> V map: linear probing over a power-of-two cell
 * array kept at most half full, and backward-shift erase, so no
 * tombstones build up.  Cells are reused in place: once the array has
 * grown to a working set, insert and erase touch no allocator, unlike
 * std::unordered_map's node per entry.  A cell holds only its key and
 * value; the occupied flags are a byte array of their own behind the
 * cells (a uint64 -> uint64 cell is 16 bytes, not 24).  Key and V must
 * be trivially copyable; the map itself is move-only.  A pointer from
 * find() or operator[] lives until the next insert or erase.
 * for_each() visits cells in array order, which depends on the keys
 * and the insert/erase history, not on key order.
 */
template <typename Key, typename V, typename Hash>
class FlatMap {
  public:
    FlatMap() = default;

    /** Sized so `expected` keys fit without growing. */
    explicit FlatMap(std::size_t expected)
    {
        if (expected > 0)
            reset_cells(std::bit_ceil(2 * expected));
    }

    FlatMap(FlatMap &&other) noexcept
        : cells_(std::exchange(other.cells_, nullptr)),
          used_(std::exchange(other.used_, nullptr)),
          mask_(std::exchange(other.mask_, 0)),
          size_(std::exchange(other.size_, 0))
    {
    }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        std::swap(cells_, other.cells_);
        std::swap(used_, other.used_);
        std::swap(mask_, other.mask_);
        std::swap(size_, other.size_);
        return *this;
    }

    ~FlatMap() { release(); }

    /** The value stored under `key`, or nullptr. */
    V *
    find(const Key &key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (!used_[i])
                return nullptr;
            if (cells_[i].key == key)
                return &cells_[i].value;
        }
    }

    const V *
    find(const Key &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** The value under `key`, inserting a value-initialized one if the
     *  key is absent. */
    V &
    operator[](const Key &key)
    {
        if ((size_ + 1) * 2 > capacity()) {
            if (V *found = find(key))
                return *found;
            grow();
        }
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (!used_[i]) {
                used_[i] = 1;
                cells_[i] = Cell{key, V{}};
                ++size_;
                return cells_[i].value;
            }
            if (cells_[i].key == key)
                return cells_[i].value;
        }
    }

    /** Inserts `key`, or overwrites its value. */
    void put(const Key &key, const V &value) { (*this)[key] = value; }

    bool
    erase(const Key &key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(key);
        for (;; hole = (hole + 1) & mask_) {
            if (!used_[hole])
                return false;
            if (cells_[hole].key == key)
                break;
        }
        // Pull each later cell of the probe run back into the hole
        // unless its home lies cyclically in (hole, cell].
        for (std::size_t i = (hole + 1) & mask_; used_[i];
             i = (i + 1) & mask_) {
            const std::size_t h = home(cells_[i].key);
            const bool stays = hole <= i ? (hole < h && h <= i)
                                         : (hole < h || h <= i);
            if (!stays) {
                cells_[hole] = cells_[i];
                hole = i;
            }
        }
        used_[hole] = 0;
        --size_;
        return true;
    }

    /** Empties the map, keeping its cells. */
    void
    clear()
    {
        if (used_ != nullptr)
            std::memset(used_, 0, capacity());
        size_ = 0;
    }

    /** Calls `fn(key, value)` for every entry, in array order. */
    template <typename Fn>
    void
    for_each(Fn &&fn) const
    {
        for (std::size_t i = 0; i < capacity(); ++i) {
            if (used_[i])
                fn(cells_[i].key, cells_[i].value);
        }
    }

    std::size_t size() const { return size_; }

  private:
    struct Cell {
        Key key{};
        V value{};
    };
    static_assert(std::is_trivially_copyable_v<Key> &&
                  std::is_trivially_copyable_v<V>);
    static_assert(alignof(Cell) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

    std::size_t capacity() const { return cells_ ? mask_ + 1 : 0; }

    std::size_t
    home(const Key &key) const
    {
        return Hash{}(key) & mask_;
    }

    /** One block: `cells` cells, then their `cells` used flags. */
    static std::size_t
    bytes_for(std::size_t cells)
    {
        return cells * (sizeof(Cell) + 1);
    }

    /** Points cells_/used_ at a fresh, uninitialized block. */
    void
    allocate(std::size_t cells)
    {
        void *block = detail::allocate_cells(bytes_for(cells));
        cells_ = static_cast<Cell *>(block);
        used_ = static_cast<std::uint8_t *>(block) + cells * sizeof(Cell);
        mask_ = cells - 1;
    }

    void
    release()
    {
        if (cells_ != nullptr)
            detail::free_cells(cells_, bytes_for(capacity()));
        cells_ = nullptr;
        used_ = nullptr;
    }

    /** Replaces the array with `cells` empty cells. */
    void
    reset_cells(std::size_t cells)
    {
        release();
        allocate(cells);
        std::uninitialized_fill_n(cells_, cells, Cell{});
        std::memset(used_, 0, cells);
        size_ = 0;
    }

    void
    grow()
    {
        const std::size_t old_cells = capacity();
        Cell *const old = std::exchange(cells_, nullptr);
        const std::uint8_t *const old_used = used_;
        reset_cells(old_cells == 0 ? 16 : old_cells * 2);
        for (std::size_t i = 0; i < old_cells; ++i) {
            if (old_used[i])
                (*this)[old[i].key] = old[i].value;
        }
        if (old != nullptr)
            detail::free_cells(old, bytes_for(old_cells));
    }

    Cell *cells_ = nullptr;
    std::uint8_t *used_ = nullptr;  ///< Inside the cells_ block.
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

}  // namespace fidr
