// Umbrella header: the full lumos public API.
//
//   #include "core/lumos.hpp"
//
//   lumos::core::CrossSystemStudy study;          // five synthetic systems
//   std::cout << study.full_report();             // every figure, as text
//   auto checks = lumos::core::check_takeaways(study);
//
// Layering (each header is usable on its own):
//   util    — rng, csv, tables, thread pool
//   stats   — descriptive stats, ecdf, kde/violin, quantile sketches
//   trace   — Job/Trace model, SWF + CSV parsers, system specs, validation
//   synth   — calibrated per-system workload generators
//   sim     — discrete-event scheduling simulator (policies + backfilling)
//   ml      — regression models (OLS, Tobit, GBRT, MLP)
//   predict — runtime-prediction study (use case 1)
//   analysis— per-figure characterization analyses
//   core    — cross-system study façade, takeaway checks, backfill study
#pragma once

#include "analysis/export.hpp"
#include "analysis/report.hpp"
#include "core/backfill_study.hpp"
#include "core/estimate_study.hpp"
#include "core/fault_aware_study.hpp"
#include "core/study.hpp"
#include "core/takeaways.hpp"
#include "predict/harness.hpp"
#include "predict/status_predictor.hpp"
#include "sim/metrics.hpp"
#include "sim/node_cluster.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "synth/fit.hpp"
#include "synth/lublin.hpp"
#include "synth/generator.hpp"
#include "trace/csv_formats.hpp"
#include "trace/swf.hpp"
#include "trace/validate.hpp"
