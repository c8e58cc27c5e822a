// Registry of update functions λ (paper §3.2, Table 1).
//
// In the hardware, user-defined update functions are pre-registered,
// duplicated to match PCIe throughput, and compiled to pipelined logic by the
// HLS toolchain. Here a function is a C++ callable over one fixed-width
// element and a parameter; vector operations apply it element-by-element,
// exactly as the duplicated hardware lanes would.
#ifndef SRC_CORE_UPDATE_FUNCTIONS_H_
#define SRC_CORE_UPDATE_FUNCTIONS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/net/kv_types.h"

namespace kvd {

// λ(element, parameter) -> new element, over the element's raw bits.
using ElementFunction = std::function<uint64_t(uint64_t element, uint64_t param)>;
// Predicate for filter operations.
using ElementPredicate = std::function<bool(uint64_t element, uint64_t param)>;

class UpdateFunctionRegistry {
 public:
  // Constructs with the builtin set from kv_types.h pre-registered.
  UpdateFunctionRegistry();

  // Registers a user λ under `id` (>= kFnFirstUserFunction). In hardware this
  // is the HLS compile step; it must happen before any operation uses `id`.
  void RegisterFunction(uint16_t id, ElementFunction fn);
  void RegisterPredicate(uint16_t id, ElementPredicate fn);

  // Applies λ to a single element in place; returns the original element.
  Result<uint64_t> ApplyScalar(uint16_t id, std::span<uint8_t> value,
                               uint64_t param, uint8_t element_width) const;

  // update_scalar2vector: every element gets λ(elem, param).
  Status ApplyScalarToVector(uint16_t id, std::span<uint8_t> value, uint64_t param,
                             uint8_t element_width) const;

  // update_vector2vector: elementwise λ(elem, param_i).
  Status ApplyVectorToVector(uint16_t id, std::span<uint8_t> value,
                             std::span<const uint8_t> params,
                             uint8_t element_width) const;

  // reduce: Σ = λ(elem, Σ) folded left-to-right from `initial`.
  Result<uint64_t> Reduce(uint16_t id, std::span<const uint8_t> value,
                          uint64_t initial, uint8_t element_width) const;

  // filter: elements where predicate(elem, param) holds, packed in order.
  Result<std::vector<uint8_t>> Filter(uint16_t id, std::span<const uint8_t> value,
                                      uint64_t param, uint8_t element_width) const;

 private:
  static Status ValidateWidth(std::span<const uint8_t> value, uint8_t element_width);
  static uint64_t LoadElement(std::span<const uint8_t> value, size_t index,
                              uint8_t width);
  static void StoreElement(std::span<uint8_t> value, size_t index, uint8_t width,
                           uint64_t element);

  std::unordered_map<uint16_t, ElementFunction> functions_;
  std::unordered_map<uint16_t, ElementPredicate> predicates_;
};

}  // namespace kvd

#endif  // SRC_CORE_UPDATE_FUNCTIONS_H_
