/// \file
/// Umbrella header for the serving layer: engine -> serve.
///
///   wire.hpp       — JSONL protocol: requests, named errors, kWireVersion
///   service.hpp    — sharded async Service with per-shard LRU result caches
///   transport.hpp  — OrderedWriter, stdio serve loop, stop signals
///   event_loop.hpp — Poller seam, timer wheel, line framer, wakeup fd
///   tcp.hpp        — epoll event-loop server (TCP or UNIX socket) + line
///                    client
///   http.hpp       — HTTP/1.1 GET parser + observability router
///   driver.hpp     — closed/open-loop load driver with latency percentiles
#pragma once

#include "serve/driver.hpp"      // IWYU pragma: export
#include "serve/event_loop.hpp"  // IWYU pragma: export
#include "serve/http.hpp"        // IWYU pragma: export
#include "serve/service.hpp"     // IWYU pragma: export
#include "serve/tcp.hpp"         // IWYU pragma: export
#include "serve/transport.hpp"   // IWYU pragma: export
#include "serve/wire.hpp"        // IWYU pragma: export
