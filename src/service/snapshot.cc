#include "src/service/snapshot.h"

#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "src/constraints/predicate.h"

namespace ccr {
namespace service {

namespace {

constexpr char kSchemaName[] = "ccr.session_snapshot";

Result<CmpOp> CmpOpFromName(const std::string& name, json::Reader* rd) {
  if (name == "=") return CmpOp::kEq;
  if (name == "!=") return CmpOp::kNe;
  if (name == "<") return CmpOp::kLt;
  if (name == "<=") return CmpOp::kLe;
  if (name == ">") return CmpOp::kGt;
  if (name == ">=") return CmpOp::kGe;
  return rd->Fail("unknown comparison operator '" + name + "'");
}

// --- writer ----------------------------------------------------------------

void WriteTuple(const Tuple& t, json::Writer* w) {
  w->BeginArray();
  for (int a = 0; a < t.size(); ++a) {
    w->ArraySep(a == 0);
    WriteValue(t.at(a), w);
  }
  w->EndArray();
}

void WriteOrderTriple(int attr, int less, int more, bool first,
                      json::Writer* w) {
  w->ArraySep(first);
  w->BeginArray();
  w->Value(attr);
  w->ArraySep(false);
  w->Value(less);
  w->ArraySep(false);
  w->Value(more);
  w->EndArray();
}

void WriteSpec(const Specification& spec, json::Writer* w) {
  const Schema& schema = spec.schema();
  w->BeginObject();
  w->Key("entity_id");
  w->Value(spec.instance().entity_id());
  w->Key("attributes");
  w->BeginArray();
  for (int a = 0; a < schema.size(); ++a) {
    w->ArraySep(a == 0);
    w->Value(schema.name(a));
  }
  w->EndArray();
  w->Key("tuples");
  w->BeginArray();
  for (int i = 0; i < spec.instance().size(); ++i) {
    w->ArraySep(i == 0);
    WriteTuple(spec.instance().tuple(i), w);
  }
  w->EndArray();
  w->Key("orders");
  w->BeginArray();
  bool first = true;
  for (int a = 0; a < schema.size(); ++a) {
    for (const auto& [less, more] : spec.temporal.orders(a)) {
      WriteOrderTriple(a, less, more, first, w);
      first = false;
    }
  }
  w->EndArray();
  w->Key("sigma");
  w->BeginArray();
  for (size_t i = 0; i < spec.sigma().size(); ++i) {
    const CurrencyConstraint& cc = spec.sigma()[i];
    w->ArraySep(i == 0);
    w->BeginObject();
    w->Key("head");
    w->Value(cc.head_attr());
    w->Key("prec");
    w->BeginArray();
    bool f = true;
    for (const OrderPredicate& p : cc.order_predicates()) {
      w->ArraySep(f);
      f = false;
      w->Value(p.attr);
    }
    w->EndArray();
    w->Key("cmp");
    w->BeginArray();
    f = true;
    for (const AttrComparePredicate& p : cc.compare_predicates()) {
      w->ArraySep(f);
      f = false;
      w->BeginArray();
      w->Value(p.attr);
      w->ArraySep(false);
      w->Value(CmpOpToString(p.op));
      w->EndArray();
    }
    w->EndArray();
    w->Key("const");
    w->BeginArray();
    f = true;
    for (const ConstComparePredicate& p : cc.constant_predicates()) {
      w->ArraySep(f);
      f = false;
      w->BeginArray();
      w->Value(p.tuple_ref);
      w->ArraySep(false);
      w->Value(p.attr);
      w->ArraySep(false);
      w->Value(CmpOpToString(p.op));
      w->ArraySep(false);
      WriteValue(p.constant, w);
      w->EndArray();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->Key("gamma");
  w->BeginArray();
  for (size_t i = 0; i < spec.gamma().size(); ++i) {
    const ConstantCfd& cfd = spec.gamma()[i];
    w->ArraySep(i == 0);
    w->BeginObject();
    w->Key("lhs");
    w->BeginArray();
    bool f = true;
    for (const auto& [attr, value] : cfd.lhs()) {
      w->ArraySep(f);
      f = false;
      w->BeginArray();
      w->Value(attr);
      w->ArraySep(false);
      WriteValue(value, w);
      w->EndArray();
    }
    w->EndArray();
    w->Key("rhs");
    w->BeginArray();
    w->Value(cfd.rhs_attr());
    w->ArraySep(false);
    WriteValue(cfd.rhs_value(), w);
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void WriteDelta(const PartialTemporalOrder& delta, json::Writer* w) {
  w->BeginObject();
  w->Key("tuples");
  w->BeginArray();
  for (size_t i = 0; i < delta.new_tuples.size(); ++i) {
    w->ArraySep(i == 0);
    WriteTuple(delta.new_tuples[i], w);
  }
  w->EndArray();
  w->Key("orders");
  w->BeginArray();
  bool first = true;
  for (const auto& [attr, less, more] : delta.orders) {
    WriteOrderTriple(attr, less, more, first, w);
    first = false;
  }
  w->EndArray();
  w->EndObject();
}

// --- parser ----------------------------------------------------------------

// Spec fields are buffered raw and assembled after the parse so any field
// order loads (the reader is order-agnostic by contract, even though the
// writer always emits the canonical order).
struct RawSpec {
  std::string entity_id;
  std::vector<std::string> attributes;
  std::vector<std::vector<Value>> tuples;
  std::vector<std::tuple<int, int, int>> orders;
  std::vector<CurrencyConstraint> sigma;
  std::vector<ConstantCfd> gamma;
  // The text sigma and gamma were parsed from (views into the snapshot).
  std::string_view sigma_text;
  std::string_view gamma_text;
};

Status ParseTupleValues(json::Reader* rd, std::vector<Value>* out) {
  out->clear();
  return rd->ParseArray([&]() -> Status {
    Value v;
    CCR_RETURN_NOT_OK(ParseValue(rd, &v));
    out->push_back(std::move(v));
    return Status::OK();
  });
}

Status ParseOrderTriple(json::Reader* rd,
                        std::vector<std::tuple<int, int, int>>* out) {
  int slot = 0;
  int attr = 0, less = 0, more = 0;
  CCR_RETURN_NOT_OK(rd->ParseArray([&]() -> Status {
    int* dst = slot == 0 ? &attr : slot == 1 ? &less : slot == 2 ? &more
                                                                 : nullptr;
    if (dst == nullptr) return rd->Fail("order entry wants 3 ints");
    ++slot;
    return rd->ParseInt(dst);
  }));
  if (slot != 3) return rd->Fail("order entry wants 3 ints");
  out->emplace_back(attr, less, more);
  return Status::OK();
}

Status ParseSigmaEntry(json::Reader* rd, std::vector<CurrencyConstraint>* out) {
  CurrencyConstraint cc;
  std::set<std::string> seen;
  CCR_RETURN_NOT_OK(rd->ParseObject([&](const std::string& f) -> Status {
    if (!seen.insert(f).second) {
      return rd->Fail("duplicate sigma field '" + f + "'");
    }
    if (f == "head") {
      int head = -1;
      CCR_RETURN_NOT_OK(rd->ParseInt(&head));
      cc.set_head_attr(head);
      return Status::OK();
    }
    if (f == "prec") {
      return rd->ParseArray([&]() -> Status {
        int attr = -1;
        CCR_RETURN_NOT_OK(rd->ParseInt(&attr));
        cc.AddOrder(attr);
        return Status::OK();
      });
    }
    if (f == "cmp") {
      return rd->ParseArray([&]() -> Status {
        int slot = 0, attr = -1;
        std::string op;
        CCR_RETURN_NOT_OK(rd->ParseArray([&]() -> Status {
          if (slot == 0) {
            ++slot;
            return rd->ParseInt(&attr);
          }
          if (slot == 1) {
            ++slot;
            return rd->ParseString(&op);
          }
          return rd->Fail("cmp entry wants [attr, op]");
        }));
        if (slot != 2) return rd->Fail("cmp entry wants [attr, op]");
        CCR_ASSIGN_OR_RETURN(const CmpOp parsed, CmpOpFromName(op, rd));
        cc.AddAttrCompare(attr, parsed);
        return Status::OK();
      });
    }
    if (f == "const") {
      return rd->ParseArray([&]() -> Status {
        int slot = 0, ref = 0, attr = -1;
        std::string op;
        Value constant;
        CCR_RETURN_NOT_OK(rd->ParseArray([&]() -> Status {
          switch (slot++) {
            case 0:
              return rd->ParseInt(&ref);
            case 1:
              return rd->ParseInt(&attr);
            case 2:
              return rd->ParseString(&op);
            case 3:
              return ParseValue(rd, &constant);
            default:
              return rd->Fail("const entry wants [ref, attr, op, value]");
          }
        }));
        if (slot != 4) {
          return rd->Fail("const entry wants [ref, attr, op, value]");
        }
        if (ref != 1 && ref != 2) {
          return rd->Fail("const tuple_ref must be 1 or 2");
        }
        CCR_ASSIGN_OR_RETURN(const CmpOp parsed, CmpOpFromName(op, rd));
        cc.AddConstCompare(ref, attr, parsed, std::move(constant));
        return Status::OK();
      });
    }
    return rd->Fail("unknown sigma field '" + f + "'");
  }));
  if (seen.count("head") == 0) return rd->Fail("sigma entry missing 'head'");
  out->push_back(std::move(cc));
  return Status::OK();
}

Status ParseAttrValuePair(json::Reader* rd, std::pair<int, Value>* out) {
  int slot = 0;
  CCR_RETURN_NOT_OK(rd->ParseArray([&]() -> Status {
    if (slot == 0) {
      ++slot;
      return rd->ParseInt(&out->first);
    }
    if (slot == 1) {
      ++slot;
      return ParseValue(rd, &out->second);
    }
    return rd->Fail("expected [attr, value]");
  }));
  if (slot != 2) return rd->Fail("expected [attr, value]");
  return Status::OK();
}

Status ParseGammaEntry(json::Reader* rd, std::vector<ConstantCfd>* out) {
  std::vector<std::pair<int, Value>> lhs;
  std::pair<int, Value> rhs{-1, Value::Null()};
  std::set<std::string> seen;
  CCR_RETURN_NOT_OK(rd->ParseObject([&](const std::string& f) -> Status {
    if (!seen.insert(f).second) {
      return rd->Fail("duplicate gamma field '" + f + "'");
    }
    if (f == "lhs") {
      return rd->ParseArray([&]() -> Status {
        std::pair<int, Value> p{-1, Value::Null()};
        CCR_RETURN_NOT_OK(ParseAttrValuePair(rd, &p));
        lhs.push_back(std::move(p));
        return Status::OK();
      });
    }
    if (f == "rhs") return ParseAttrValuePair(rd, &rhs);
    return rd->Fail("unknown gamma field '" + f + "'");
  }));
  if (seen.count("rhs") == 0) return rd->Fail("gamma entry missing 'rhs'");
  out->emplace_back(std::move(lhs), rhs.first, std::move(rhs.second));
  return Status::OK();
}

Status ParseSpecObject(json::Reader* rd, RawSpec* raw) {
  std::set<std::string> seen;
  CCR_RETURN_NOT_OK(rd->ParseObject([&](const std::string& f) -> Status {
    if (!seen.insert(f).second) {
      return rd->Fail("duplicate spec field '" + f + "'");
    }
    if (f == "entity_id") return rd->ParseString(&raw->entity_id);
    if (f == "attributes") {
      return rd->ParseArray([&]() -> Status {
        std::string name;
        CCR_RETURN_NOT_OK(rd->ParseString(&name));
        raw->attributes.push_back(std::move(name));
        return Status::OK();
      });
    }
    if (f == "tuples") {
      return rd->ParseArray([&]() -> Status {
        std::vector<Value> values;
        CCR_RETURN_NOT_OK(ParseTupleValues(rd, &values));
        raw->tuples.push_back(std::move(values));
        return Status::OK();
      });
    }
    if (f == "orders") {
      return rd->ParseArray(
          [&]() -> Status { return ParseOrderTriple(rd, &raw->orders); });
    }
    if (f == "sigma") {
      rd->SkipWs();
      const size_t begin = rd->pos();
      CCR_RETURN_NOT_OK(rd->ParseArray(
          [&]() -> Status { return ParseSigmaEntry(rd, &raw->sigma); }));
      raw->sigma_text = rd->Since(begin);
      return Status::OK();
    }
    if (f == "gamma") {
      rd->SkipWs();
      const size_t begin = rd->pos();
      CCR_RETURN_NOT_OK(rd->ParseArray(
          [&]() -> Status { return ParseGammaEntry(rd, &raw->gamma); }));
      raw->gamma_text = rd->Since(begin);
      return Status::OK();
    }
    return rd->Fail("unknown spec field '" + f + "'");
  }));
  for (const char* required : {"entity_id", "attributes", "tuples"}) {
    if (seen.count(required) == 0) {
      return rd->Fail(std::string("spec missing field '") + required + "'");
    }
  }
  return Status::OK();
}

// Parsed snapshots whose Σ and Γ read the same text share one rule set,
// as the specifications of one corpus do: a daemon serving a corpus makes
// its rule set once, not at every OPEN and rehydration. The pool holds no
// rule set alive: once the last specification using one is gone, the
// next Get drops its entry.
class RuleSetPool {
 public:
  // The rule set of `raw`'s Σ and Γ for `num_attrs` attributes: a live
  // one parsed from the same text, or RuleSet::Make's.
  Result<std::shared_ptr<const RuleSet>> Get(int num_attrs, RawSpec* raw) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::erase_if(entries_,
                    [](const Entry& e) { return e.rules.expired(); });
      for (const Entry& e : entries_) {
        if (e.num_attrs != num_attrs || e.sigma_text != raw->sigma_text ||
            e.gamma_text != raw->gamma_text) {
          continue;
        }
        if (std::shared_ptr<const RuleSet> rules = e.rules.lock()) {
          return rules;
        }
      }
    }
    CCR_ASSIGN_OR_RETURN(
        std::shared_ptr<const RuleSet> rules,
        RuleSet::Make(num_attrs, std::move(raw->sigma), std::move(raw->gamma)));
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(Entry{num_attrs, std::string(raw->sigma_text),
                             std::string(raw->gamma_text), rules});
    return rules;
  }

 private:
  struct Entry {
    int num_attrs;
    std::string sigma_text;
    std::string gamma_text;
    std::weak_ptr<const RuleSet> rules;
  };
  std::mutex mu_;
  std::vector<Entry> entries_;
};

RuleSetPool& SnapshotRuleSets() {
  static RuleSetPool pool;
  return pool;
}

Result<Specification> AssembleSpec(RawSpec raw) {
  CCR_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(raw.attributes)));
  const int n_attrs = schema.size();
  EntityInstance instance(std::move(schema), std::move(raw.entity_id));
  for (std::vector<Value>& values : raw.tuples) {
    CCR_RETURN_NOT_OK(instance.Add(Tuple(std::move(values))));
  }
  TemporalInstance temporal(std::move(instance));
  for (const auto& [attr, less, more] : raw.orders) {
    if (attr < 0 || attr >= n_attrs) {
      return Status::InvalidArgument(
          "session snapshot: order attribute " + std::to_string(attr) +
          " out of range");
    }
    CCR_RETURN_NOT_OK(temporal.AddOrder(attr, less, more));
  }
  Result<std::shared_ptr<const RuleSet>> rules =
      SnapshotRuleSets().Get(n_attrs, &raw);
  if (!rules.ok()) {
    return Status::InvalidArgument("session snapshot: " +
                                   rules.status().message());
  }
  Specification spec;
  spec.temporal = std::move(temporal);
  spec.rules = std::move(rules).value();
  return spec;
}

}  // namespace

std::string DeltaToJson(const PartialTemporalOrder& delta) {
  json::Writer w(0);
  WriteDelta(delta, &w);
  return std::move(w).Take();
}

Status ParseDelta(json::Reader* rd, PartialTemporalOrder* delta) {
  std::set<std::string> seen;
  return rd->ParseObject([&](const std::string& f) -> Status {
    if (!seen.insert(f).second) {
      return rd->Fail("duplicate extend field '" + f + "'");
    }
    if (f == "tuples") {
      return rd->ParseArray([&]() -> Status {
        std::vector<Value> values;
        CCR_RETURN_NOT_OK(ParseTupleValues(rd, &values));
        delta->new_tuples.emplace_back(std::move(values));
        return Status::OK();
      });
    }
    if (f == "orders") {
      std::vector<std::tuple<int, int, int>> orders;
      CCR_RETURN_NOT_OK(rd->ParseArray(
          [&]() -> Status { return ParseOrderTriple(rd, &orders); }));
      delta->orders = std::move(orders);
      return Status::OK();
    }
    return rd->Fail("unknown extend field '" + f + "'");
  });
}

void WriteValue(const Value& v, json::Writer* w) {
  switch (v.type()) {
    case ValueType::kNull:
      w->NullValue();
      return;
    case ValueType::kInt:
      w->BeginObject();
      w->Key("i");
      w->Value(v.as_int());
      w->EndObject();
      return;
    case ValueType::kDouble:
      w->BeginObject();
      w->Key("d");
      w->Value(v.as_double());
      w->EndObject();
      return;
    case ValueType::kString:
      w->BeginObject();
      w->Key("s");
      w->Value(v.as_string());
      w->EndObject();
      return;
  }
}

Status ParseValue(json::Reader* rd, Value* out) {
  if (rd->ConsumeWord("null")) {
    *out = Value::Null();
    return Status::OK();
  }
  int fields = 0;
  CCR_RETURN_NOT_OK(rd->ParseObject([&](const std::string& f) -> Status {
    if (++fields > 1) return rd->Fail("value wants exactly one tag field");
    if (f == "i") {
      int64_t v = 0;
      CCR_RETURN_NOT_OK(rd->ParseInt64(&v));
      *out = Value::Int(v);
      return Status::OK();
    }
    if (f == "d") {
      double v = 0;
      CCR_RETURN_NOT_OK(rd->ParseDouble(&v));
      *out = Value::Real(v);
      return Status::OK();
    }
    if (f == "s") {
      std::string v;
      CCR_RETURN_NOT_OK(rd->ParseString(&v));
      *out = Value::Str(std::move(v));
      return Status::OK();
    }
    return rd->Fail("unknown value tag '" + f + "'");
  }));
  if (fields != 1) return rd->Fail("value wants exactly one tag field");
  return Status::OK();
}

std::string SnapshotToJson(const SessionSnapshot& snapshot, int indent) {
  json::Writer w(indent);
  w.BeginObject();
  w.Key("schema");
  w.Value(kSchemaName);
  w.Key("schema_version");
  w.Value(kSnapshotSchemaVersion);
  w.Key("engine");
  w.BeginObject();
  w.Key("naive_deduce");
  w.Value(snapshot.engine.naive_deduce);
  w.EndObject();
  w.Key("spec");
  WriteSpec(snapshot.spec, &w);
  w.Key("ops");
  w.BeginArray();
  for (size_t i = 0; i < snapshot.ops.size(); ++i) {
    const SessionOp& op = snapshot.ops[i];
    w.ArraySep(i == 0);
    w.BeginObject();
    if (op.kind == SessionOp::Kind::kRound) {
      w.Key("round");
      w.Value(true);
    } else {
      w.Key("extend");
      WriteDelta(op.delta, &w);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string out = std::move(w).Take();
  out.push_back('\n');
  return out;
}

Result<SessionSnapshot> SnapshotFromJson(std::string_view text) {
  json::Reader rd(text, "session snapshot");
  SessionSnapshot snap;
  RawSpec raw;
  std::string schema;
  int version = -1;
  std::set<std::string> seen;
  Status st = rd.ParseObject([&](const std::string& key) -> Status {
    if (!seen.insert(key).second) {
      return rd.Fail("duplicate field '" + key + "'");
    }
    if (key == "schema") return rd.ParseString(&schema);
    if (key == "schema_version") {
      CCR_RETURN_NOT_OK(rd.ParseInt(&version));
      if (version != kSnapshotSchemaVersion) {
        return Status::InvalidArgument(
            "session snapshot: schema_version " + std::to_string(version) +
            " unsupported (have " + std::to_string(kSnapshotSchemaVersion) +
            ")");
      }
      return Status::OK();
    }
    if (key == "engine") {
      std::set<std::string> seen_engine;
      return rd.ParseObject([&](const std::string& f) -> Status {
        if (!seen_engine.insert(f).second) {
          return rd.Fail("duplicate engine field '" + f + "'");
        }
        if (f == "naive_deduce") {
          return rd.ParseBool(&snap.engine.naive_deduce);
        }
        return rd.Fail("unknown engine field '" + f + "'");
      });
    }
    if (key == "spec") return ParseSpecObject(&rd, &raw);
    if (key == "ops") {
      return rd.ParseArray([&]() -> Status {
        SessionOp op;
        int fields = 0;
        CCR_RETURN_NOT_OK(rd.ParseObject([&](const std::string& f) -> Status {
          if (++fields > 1) return rd.Fail("op wants exactly one field");
          if (f == "round") {
            bool marker = false;
            CCR_RETURN_NOT_OK(rd.ParseBool(&marker));
            if (!marker) return rd.Fail("round marker must be true");
            op.kind = SessionOp::Kind::kRound;
            return Status::OK();
          }
          if (f == "extend") {
            op.kind = SessionOp::Kind::kExtend;
            return ParseDelta(&rd, &op.delta);
          }
          return rd.Fail("unknown op field '" + f + "'");
        }));
        if (fields != 1) return rd.Fail("op wants exactly one field");
        snap.ops.push_back(std::move(op));
        return Status::OK();
      });
    }
    return rd.Fail("unknown field '" + key + "'");
  });
  CCR_RETURN_NOT_OK(st);
  if (!rd.AtEnd()) return rd.Fail("trailing content");
  for (const char* required : {"schema", "schema_version", "spec"}) {
    if (seen.count(required) == 0) {
      return Status::InvalidArgument(
          std::string("session snapshot: missing field '") + required + "'");
    }
  }
  if (schema != kSchemaName) {
    return Status::InvalidArgument("session snapshot: schema is '" + schema +
                                   "', want '" + kSchemaName + "'");
  }
  CCR_ASSIGN_OR_RETURN(snap.spec, AssembleSpec(std::move(raw)));
  return snap;
}

}  // namespace service
}  // namespace ccr
