// Umbrella header: the public API of CAStream.
//
// CAStream implements Tirthapura & Woodruff, "A General Method for
// Estimating Correlated Aggregates Over a Data Stream" (ICDE 2012 /
// Algorithmica 2015): summaries answering f({x : y <= c}) for query-time c.
//
// Typed use:
//   #include "src/castream.h"
//   auto opts = castream::CorrelatedSketchOptions{.eps = 0.2, .delta = 0.05,
//                                                .y_max = 1'000'000,
//                                                .f_max_hint = 1e12};
//   auto sketch = castream::MakeCorrelatedF2(opts, /*seed=*/42);
//   sketch.Insert(item_id, attribute);
//   double estimate = sketch.Query(cutoff).value();
//
// Unified Summary API: every durable summary kind — correlated F2, F0,
// rarity, F2 heavy hitters — models one protocol (Insert / InsertBatch /
// MergeFrom / Query / Serialize / static Deserialize) behind the
// type-erased castream::AnySummary, built through the SummaryRegistry:
//   auto summary = castream::MakeSummary("f2", castream::SummaryOptions{},
//                                        /*seed=*/42).value();
//   summary.InsertBatch(tuples);
//   std::string blob;
//   auto st = summary.Serialize(&blob);             // versioned wire format
//   auto peer = castream::AnySummary::Deserialize(  // any kind, any process
//       castream::io::BytesOf(blob)).value();
//   st = summary.MergeFrom(peer);                   // value-based family check
// Summaries built with equal (kind, options, seed) merge across processes;
// see examples/castream_shardctl.cpp for cross-process sharding and
// src/io/ for the wire format (endian-stable, length-prefixed, versioned).
#ifndef CASTREAM_CASTREAM_H_
#define CASTREAM_CASTREAM_H_

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/any_summary.h"
#include "src/core/async_window.h"
#include "src/core/bidirectional.h"
#include "src/core/correlated_chh.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_f0_fm.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/core/correlated_sketch.h"
#include "src/core/dyadic.h"
#include "src/core/exact_correlated.h"
#include "src/core/greater_than.h"
#include "src/core/multipass.h"
#include "src/core/options.h"
#include "src/driver/bounded_queue.h"
#include "src/driver/sharded_driver.h"
#include "src/driver/sharded_window.h"
#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/io/format.h"
#include "src/quantile/gk_quantile.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/exact.h"
#include "src/sketch/fk_sketch.h"
#include "src/sketch/kmv.h"
#include "src/sketch/l1_sketch.h"
#include "src/stream/generators.h"
#include "src/stream/tape.h"
#include "src/stream/types.h"

#endif  // CASTREAM_CASTREAM_H_
