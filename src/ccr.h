// Umbrella header for libccr — conflict resolution by inferring data
// currency and consistency (Fan, Geerts, Tang, Yu; ICDE 2013).
//
// Typical use:
//
//   #include "src/ccr.h"
//
//   ccr::Specification se = ...;      // It + Σ + Γ
//   auto result = ccr::Resolve(se, &oracle);
//   if (result.ok() && result->complete) { ... result->true_values ... }
//
// See examples/quickstart.cpp for the paper's Edith/George walkthrough.

#ifndef CCR_CCR_H_
#define CCR_CCR_H_

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/constraints/parser.h"
#include "src/constraints/specification.h"
#include "src/core/deduce.h"
#include "src/core/derivation.h"
#include "src/core/implication.h"
#include "src/core/isvalid.h"
#include "src/core/resolver.h"
#include "src/core/session.h"
#include "src/core/suggest.h"
#include "src/data/career_generator.h"
#include "src/data/dataset.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/cnf_builder.h"
#include "src/encode/instantiation.h"
#include "src/eval/experiment.h"
#include "src/eval/metrics.h"
#include "src/eval/pick.h"
#include "src/eval/result_io.h"
#include "src/graph/clique.h"
#include "src/maxsat/walksat.h"
#include "src/order/partial_order.h"
#include "src/relational/entity_instance.h"
#include "src/sat/dimacs.h"
#include "src/sat/solver.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/session_manager.h"
#include "src/service/session_runtime.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

#endif  // CCR_CCR_H_
