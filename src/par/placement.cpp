#include "refpga/par/placement.hpp"

#include <algorithm>
#include <limits>

#include "refpga/common/contracts.hpp"

namespace refpga::par {

using fabric::Device;
using fabric::Region;
using fabric::SliceCoord;
using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;
using netlist::PartitionId;

Placement::Placement(const Device& dev, const netlist::Netlist& nl,
                     const PackedDesign& design)
    : dev_(&dev), nl_(&nl), design_(&design) {
    regions_.resize(nl.partitions().size());
    slice_pos_.resize(design.slice_count());
    site_to_slice_.assign(static_cast<std::size_t>(dev.rows()) * dev.cols() *
                              Device::kSlicesPerClb,
                          SliceId{});
}

void Placement::constrain(PartitionId partition, const Region& region) {
    REFPGA_EXPECTS(!placed_);
    REFPGA_EXPECTS(partition.value() < regions_.size());
    REFPGA_EXPECTS(region.x_begin < region.x_end && region.y_begin < region.y_end);
    REFPGA_EXPECTS(region.x_begin >= 0 && region.x_end <= dev_->cols());
    REFPGA_EXPECTS(region.y_begin >= 0 && region.y_end <= dev_->rows());
    regions_[partition.value()] = region;
}

Region Placement::region_of(PartitionId partition) const {
    REFPGA_EXPECTS(partition.value() < regions_.size());
    return regions_[partition.value()].value_or(dev_->full_region());
}

std::size_t Placement::site_index(const SliceCoord& pos) const {
    REFPGA_EXPECTS(dev_->valid_slice(pos));
    return (static_cast<std::size_t>(pos.y) * dev_->cols() + pos.x) *
               Device::kSlicesPerClb +
           pos.index;
}

void Placement::place_initial() {
    REFPGA_EXPECTS(!placed_);

    // Fill each partition's region in scan order.
    std::vector<std::size_t> cursor(regions_.size(), 0);
    for (std::uint32_t si = 0; si < design_->slice_count(); ++si) {
        const PartitionId part = design_->slices()[si].partition;
        const Region region = region_of(part);
        const std::size_t capacity =
            static_cast<std::size_t>(region.slice_capacity());
        std::size_t& cur = cursor[part.value()];
        // Advance to the next free site in the region (another partition may
        // overlap an unconstrained region).
        SliceCoord pos;
        bool found = false;
        while (cur < capacity) {
            const auto offset = cur++;
            const int per_col = Device::kSlicesPerClb;
            const int tiles = static_cast<int>(offset) / per_col;
            pos.index = static_cast<int>(offset) % per_col;
            pos.x = region.x_begin + tiles % region.width();
            pos.y = region.y_begin + tiles / region.width();
            if (!site_to_slice_[site_index(pos)].valid()) {
                found = true;
                break;
            }
        }
        if (!found)
            throw ContractViolation("partition '" +
                                    nl_->partitions()[part.value()] +
                                    "' does not fit in its region");
        slice_pos_[si] = pos;
        site_to_slice_[site_index(pos)] = SliceId{si};
    }

    // BRAM/MULT: nearest free dedicated site to the die centre of the
    // partition's region.
    auto assign_sites = [&](const std::vector<CellId>& cells,
                            const std::vector<SliceCoord>& sites,
                            std::vector<SliceCoord>& out) {
        std::vector<bool> used(sites.size(), false);
        out.resize(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Region region = region_of(nl_->cell(cells[i]).partition);
            const SliceCoord centre{(region.x_begin + region.x_end) / 2,
                                    (region.y_begin + region.y_end) / 2, 0};
            std::size_t best = sites.size();
            int best_d = std::numeric_limits<int>::max();
            for (std::size_t s = 0; s < sites.size(); ++s) {
                if (used[s]) continue;
                const int d = Device::distance(sites[s], centre);
                if (d < best_d) {
                    best_d = d;
                    best = s;
                }
            }
            if (best == sites.size())
                throw ContractViolation("not enough BRAM/MULT sites on device");
            used[best] = true;
            out[i] = sites[best];
        }
    };
    assign_sites(design_->brams(), dev_->bram_sites(), bram_pos_);
    assign_sites(design_->mults(), dev_->mult_sites(), mult_pos_);

    // Pads along the bottom edge (y = 0 ring), spread evenly.
    pad_pos_.resize(design_->pads().size());
    const int cols = dev_->cols();
    for (std::size_t i = 0; i < pad_pos_.size(); ++i) {
        const int x = static_cast<int>((i * static_cast<std::size_t>(cols)) /
                                       std::max<std::size_t>(pad_pos_.size(), 1));
        pad_pos_[i] = SliceCoord{std::min(x, cols - 1), 0, 0};
    }

    // Fixed-position lookup for O(1) cell_pos on non-slice cells.
    fixed_pos_.assign(nl_->cell_count(), SliceCoord{0, 0, -1});
    for (std::size_t i = 0; i < design_->brams().size(); ++i)
        fixed_pos_[design_->brams()[i].value()] = bram_pos_[i];
    for (std::size_t i = 0; i < design_->mults().size(); ++i)
        fixed_pos_[design_->mults()[i].value()] = mult_pos_[i];
    for (std::size_t i = 0; i < design_->pads().size(); ++i)
        fixed_pos_[design_->pads()[i].value()] = pad_pos_[i];

    placed_ = true;
}

SliceCoord Placement::slice_pos(SliceId s) const {
    REFPGA_EXPECTS(s.value() < slice_pos_.size());
    return slice_pos_[s.value()];
}

void Placement::set_slice_pos(SliceId s, const SliceCoord& pos) {
    REFPGA_EXPECTS(s.value() < slice_pos_.size());
    REFPGA_EXPECTS(!slice_at(pos).valid());
    site_to_slice_[site_index(slice_pos_[s.value()])] = SliceId{};
    slice_pos_[s.value()] = pos;
    site_to_slice_[site_index(pos)] = s;
}

SliceId Placement::slice_at(const SliceCoord& pos) const {
    return site_to_slice_[site_index(pos)];
}

void Placement::swap_sites(const SliceCoord& a, const SliceCoord& b) {
    const SliceId sa = slice_at(a);
    const SliceId sb = slice_at(b);
    site_to_slice_[site_index(a)] = sb;
    site_to_slice_[site_index(b)] = sa;
    if (sa.valid()) slice_pos_[sa.value()] = b;
    if (sb.valid()) slice_pos_[sb.value()] = a;
}

SliceCoord Placement::cell_pos(CellId cell) const {
    const SliceId s = design_->slice_of(cell);
    if (s.valid()) return slice_pos(s);
    if (cell.value() < fixed_pos_.size() && fixed_pos_[cell.value()].index >= 0)
        return fixed_pos_[cell.value()];
    return SliceCoord{0, 0, 0};
}

bool Placement::dedicated_net(NetId net) const {
    const auto& n = nl_->net(net);
    if (n.is_clock) return true;
    if (!n.driven()) return true;
    const CellKind k = nl_->cell(n.driver.cell).kind;
    return k == CellKind::Gnd || k == CellKind::Vcc;
}

int Placement::net_hpwl(NetId net) const {
    const auto& n = nl_->net(net);
    if (dedicated_net(net) || n.sinks.empty()) return 0;
    int min_x = dev_->cols();
    int max_x = 0;
    int min_y = dev_->rows();
    int max_y = 0;
    auto extend = [&](const SliceCoord& pos) {
        min_x = std::min(min_x, pos.x);
        max_x = std::max(max_x, pos.x);
        min_y = std::min(min_y, pos.y);
        max_y = std::max(max_y, pos.y);
    };
    extend(cell_pos(n.driver.cell));
    for (const auto& sink : n.sinks) extend(cell_pos(sink.cell));
    return (max_x - min_x) + (max_y - min_y);
}

long Placement::total_hpwl() const {
    long total = 0;
    for (std::uint32_t i = 0; i < nl_->net_count(); ++i)
        total += net_hpwl(NetId{i});
    return total;
}

}  // namespace refpga::par
