// Fixture: protocols (layer 4) -> obs (layer 5) through the hardware-
// counter header, which left the macro surface — a violation.
#pragma once
#include "obs/hwcounters.hpp"
