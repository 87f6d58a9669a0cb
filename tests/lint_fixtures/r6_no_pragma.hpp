// Fixture: a header without #pragma once.  The double-include TU of the
// include-hygiene check (ccmx_hygiene_tu in src/CMakeLists.txt) must fail
// to compile on it.  ("#pragma once" in this comment must not count.)
inline int forty_two() { return 42; }
