#include "xsycl/op_counters.hpp"

#include <sstream>

namespace hacc::xsycl {

void OpCounters::merge(const OpCounters& o) {
  select_ops += o.select_ops;
  select_words += o.select_words;
  local32_words += o.local32_words;
  local32_barriers += o.local32_barriers;
  localobj_bytes += o.localobj_bytes;
  localobj_barriers += o.localobj_barriers;
  broadcast_ops += o.broadcast_ops;
  butterfly_words += o.butterfly_words;
  reduce_ops += o.reduce_ops;
  barriers += o.barriers;
  atomic_f32_add += o.atomic_f32_add;
  atomic_f32_minmax += o.atomic_f32_minmax;
  interactions += o.interactions;
  m2p_ops += o.m2p_ops;
  lanes_launched += o.lanes_launched;
  sub_groups += o.sub_groups;
  work_groups += o.work_groups;
  global_loads += o.global_loads;
  global_stores += o.global_stores;
}

std::string OpCounters::summary() const {
  std::ostringstream os;
  os << "interactions=" << interactions
     << " m2p=" << m2p_ops
     << " select_words=" << select_words
     << " local32_words=" << local32_words
     << " localobj_bytes=" << localobj_bytes
     << " broadcasts=" << broadcast_ops
     << " butterfly_words=" << butterfly_words
     << " reduces=" << reduce_ops
     << " barriers=" << barriers
     << " atomics(f32 add/minmax)=" << atomic_f32_add << '/' << atomic_f32_minmax;
  return os.str();
}

}  // namespace hacc::xsycl
