// Two-lane selects for the clip sweeps (core/projection.cc) and the ∇_z
// backprop through the clip pattern (core/optimizer.cc).
//
// Both decide each entry's contribution by data-dependent comparisons,
// which a branch would mispredict. Written as scalar ternaries the compiler
// still branches: it turns `sum += pick ? x : -0.0` back into
// `if (pick) sum += x`, since adding -0.0 is the identity. So the
// elementwise parts run on two-lane vectors (GCC/Clang vector extensions:
// SSE2 on x86-64, plain scalar code where there is no SIMD), whose
// comparisons yield all-ones/all-zeros lane masks and whose selects are
// bitwise. Each lane computes exactly what the scalar code would.

#ifndef WFM_CORE_LANES_H_
#define WFM_CORE_LANES_H_

#include <cstdint>
#include <cstring>

namespace wfm::lanes {

typedef double Lanes __attribute__((vector_size(16)));
typedef std::int64_t Mask __attribute__((vector_size(16)));

inline Lanes Load2(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void Store2(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

inline Lanes Broadcast2(double x) { return Lanes{x, x}; }

inline Mask Splat2(std::int64_t x) { return Mask{x, x}; }

// Lane-wise comparisons as all-ones/all-zeros masks. The casts name the mask
// type, which GCC and Clang spell differently for a comparison's result.
inline Mask Le2(Lanes a, Lanes b) { return (Mask)(a <= b); }
inline Mask Ge2(Lanes a, Lanes b) { return (Mask)(a >= b); }
inline Mask Eq2(Mask a, Mask b) { return (Mask)(a == b); }

/// Lane-wise `pick ? if_true : if_false`.
inline Lanes Select2(Mask pick, Lanes if_true, Lanes if_false) {
  return (Lanes)((pick & (Mask)if_true) | (~pick & (Mask)if_false));
}

}  // namespace wfm::lanes

#endif  // WFM_CORE_LANES_H_
