/// \file
/// Umbrella header of the telemetry subsystem: the metrics registry
/// (obs/metrics.hpp), the request-lifecycle stamps (obs/trace.hpp), the
/// always-on flight recorder (obs/flight_recorder.hpp), and the
/// monitoring timeseries + anomaly watchdog (obs/timeseries.hpp).
#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
