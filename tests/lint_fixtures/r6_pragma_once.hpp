// Fixture: r6_no_pragma.hpp's definition behind #pragma once.  The
// double-include TU of the include-hygiene check must compile cleanly.
#pragma once

inline int forty_two() { return 42; }
