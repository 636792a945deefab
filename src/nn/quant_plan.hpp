// QuantizedInferencePlan and CalibrationReport are declared in nn/plan.hpp:
// f32 and int8 inference share one nn::Plan.
#pragma once

#include "nn/plan.hpp"
