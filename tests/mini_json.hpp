// Forwarding header: the JSON DOM parser lives in src/util/minijson.hpp;
// tests spell it `minijson::...`.
#pragma once

#include "util/minijson.hpp"

namespace minijson = gothic::minijson;
