/**
 * @file
 * Allocation-free open-addressing hash map for small, copyable keys
 * and values on hot paths (chunk-cache indexes, the NIC's LBA lookup).
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

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

/**
 * Open-addressing Key -> V map: linear probing over a power-of-two cell
 * array kept at most half full, and backward-shift erase, so no
 * tombstones build up.  Cells are reused in place: once the array has
 * grown to a working set, insert and erase touch no allocator, unlike
 * std::unordered_map's node per entry.  Key and V must be cheap to
 * copy; a pointer from find() lives until the next put or erase.
 */
template <typename Key, typename V, typename Hash>
class FlatMap {
  public:
    FlatMap() = default;

    /** Sized so `expected` keys fit without growing. */
    explicit FlatMap(std::size_t expected)
    {
        if (expected > 0) {
            cells_.resize(std::bit_ceil(2 * expected));
            mask_ = cells_.size() - 1;
        }
    }

    /** The value stored under `key`, or nullptr. */
    V *
    find(const Key &key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Cell &cell = cells_[i];
            if (!cell.used)
                return nullptr;
            if (cell.key == key)
                return &cell.value;
        }
    }

    const V *
    find(const Key &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** Inserts `key`, or overwrites its value. */
    void
    put(const Key &key, const V &value)
    {
        if ((size_ + 1) * 2 > cells_.size())
            grow();
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Cell &cell = cells_[i];
            if (!cell.used) {
                cell = Cell{key, value, true};
                ++size_;
                return;
            }
            if (cell.key == key) {
                cell.value = value;
                return;
            }
        }
    }

    bool
    erase(const Key &key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(key);
        for (;; hole = (hole + 1) & mask_) {
            if (!cells_[hole].used)
                return false;
            if (cells_[hole].key == key)
                break;
        }
        // Pull each later cell of the probe run back into the hole
        // unless its home lies cyclically in (hole, cell].
        for (std::size_t i = (hole + 1) & mask_; cells_[i].used;
             i = (i + 1) & mask_) {
            const std::size_t h = home(cells_[i].key);
            const bool stays = hole <= i ? (hole < h && h <= i)
                                         : (hole < h || h <= i);
            if (!stays) {
                cells_[hole] = cells_[i];
                hole = i;
            }
        }
        cells_[hole].used = false;
        --size_;
        return true;
    }

    /** Empties the map, keeping its cells. */
    void
    clear()
    {
        for (Cell &cell : cells_)
            cell.used = false;
        size_ = 0;
    }

    std::size_t size() const { return size_; }

  private:
    struct Cell {
        Key key{};
        V value{};
        bool used = false;
    };

    std::size_t
    home(const Key &key) const
    {
        return Hash{}(key) & mask_;
    }

    void
    grow()
    {
        std::vector<Cell> old = std::move(cells_);
        cells_.assign(old.empty() ? 16 : old.size() * 2, Cell{});
        mask_ = cells_.size() - 1;
        size_ = 0;
        for (const Cell &cell : old) {
            if (cell.used)
                put(cell.key, cell.value);
        }
    }

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

}  // namespace fidr
