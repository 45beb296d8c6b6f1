// Deterministic memory cap for the spec-verdict worker (see heap_cap.cpp).
#pragma once

#include <cstdint>

namespace e2e {

/// From now on, and until the next call, operator new throws
/// std::bad_alloc once the bytes allocated since this call, net of frees,
/// would exceed `budget_bytes`.
void cap_heap_growth(std::int64_t budget_bytes);

}  // namespace e2e
