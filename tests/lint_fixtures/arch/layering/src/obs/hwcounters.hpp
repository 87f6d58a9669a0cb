// Fixture: stands in for the real hardware-counter header (same rel
// path), which is not part of the macro surface.
#pragma once
