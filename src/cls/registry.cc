#include "src/cls/registry.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_set>
#include <utility>

namespace mal::cls {

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kLogging:
      return "Logging";
    case Category::kMetadata:
      return "Metadata";
    case Category::kManagement:
      return "Management";
    case Category::kLocking:
      return "Locking";
    case Category::kOther:
      return "Other";
  }
  return "?";
}

namespace {

using script::Interpreter;
using script::Value;
using Args = std::vector<Value>;
using HostResult = mal::Result<Value>;

mal::Status ArgError(const char* fn, const char* want) {
  return mal::Status::InvalidArgument(std::string(fn) + ": expected " + want);
}

// Parses symbolic error names scripts use with cls_error().
mal::Code CodeFromName(const std::string& name) {
  static const std::map<std::string, mal::Code> kCodes = {
      {"NOT_FOUND", mal::Code::kNotFound},
      {"ALREADY_EXISTS", mal::Code::kAlreadyExists},
      {"INVALID_ARGUMENT", mal::Code::kInvalidArgument},
      {"PERMISSION_DENIED", mal::Code::kPermissionDenied},
      {"STALE_EPOCH", mal::Code::kStaleEpoch},
      {"READ_ONLY", mal::Code::kReadOnly},
      {"NOT_WRITTEN", mal::Code::kNotWritten},
      {"ABORTED", mal::Code::kAborted},
      {"OUT_OF_RANGE", mal::Code::kOutOfRange},
  };
  auto it = kCodes.find(name);
  return it == kCodes.end() ? mal::Code::kInternal : it->second;
}

// Where the cls_* bindings find the context of the call in progress. Set for
// the length of one call; null between calls.
struct ContextSlot {
  ClsContext* ctx = nullptr;
  uint64_t uses = 0;  // cls_* calls that reached a context
};

// Binds ClsContext operations into a script interpreter as cls_* host
// functions (cls_read, cls_write, cls_omap_get, ...). They reach the context
// of the call in progress through `slot`, so one binding serves every call.
void BindContext(Interpreter* interp, ContextSlot* slot) {
  auto bind = [interp, slot](const char* name, auto op) {
    interp->RegisterHostFunction(name, [slot, op](Interpreter&, const Args& args) {
      ++slot->uses;
      return HostResult(op(*slot->ctx, args));
    });
  };
  bind("cls_exists", [](ClsContext& ctx, const Args&) -> HostResult {
    return Value(ctx.Exists());
  });
  bind("cls_read", [](ClsContext& ctx, const Args& args) -> HostResult {
    uint64_t ofs = 0;
    uint64_t len = 0;
    if (args.size() > 0 && args[0].is_number()) {
      ofs = static_cast<uint64_t>(args[0].as_number());
    }
    if (args.size() > 1 && args[1].is_number()) {
      len = static_cast<uint64_t>(args[1].as_number());
    }
    auto data = ctx.Read(ofs, len);
    if (!data.ok()) {
      return data.status();
    }
    return Value(data.value().ToString());
  });
  bind("cls_size", [](ClsContext& ctx, const Args&) -> HostResult {
    auto size = ctx.Size();
    if (!size.ok()) {
      return size.status();
    }
    return Value(static_cast<double>(size.value()));
  });
  bind("cls_create", [](ClsContext& ctx, const Args& args) -> HostResult {
    bool excl = !args.empty() && args[0].Truthy();
    mal::Status s = ctx.Create(excl);
    if (!s.ok()) {
      return s;
    }
    return Value::Nil();
  });
  bind("cls_write", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.size() < 2 || !args[0].is_number() || !args[1].is_string()) {
      return ArgError("cls_write", "(offset, data)");
    }
    mal::Status s = ctx.Write(static_cast<uint64_t>(args[0].as_number()),
                              mal::Buffer::FromString(args[1].as_string()));
    if (!s.ok()) {
      return s;
    }
    return Value::Nil();
  });
  bind("cls_write_full", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.empty() || !args[0].is_string()) {
      return ArgError("cls_write_full", "(data)");
    }
    mal::Status s = ctx.WriteFull(mal::Buffer::FromString(args[0].as_string()));
    if (!s.ok()) {
      return s;
    }
    return Value::Nil();
  });
  bind("cls_append", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.empty() || !args[0].is_string()) {
      return ArgError("cls_append", "(data)");
    }
    mal::Status s = ctx.Append(mal::Buffer::FromString(args[0].as_string()));
    if (!s.ok()) {
      return s;
    }
    return Value::Nil();
  });
  bind("cls_omap_get", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.empty() || !args[0].is_string()) {
      return ArgError("cls_omap_get", "(key)");
    }
    auto v = ctx.OmapGet(args[0].as_string());
    if (!v.ok()) {
      if (v.status().code() == mal::Code::kNotFound) {
        return Value::Nil();  // scripts test for nil, like Lua conventions
      }
      return v.status();
    }
    return Value(v.value());
  });
  bind("cls_omap_set", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.size() < 2 || !args[0].is_string() || !args[1].is_string()) {
      return ArgError("cls_omap_set", "(key, value)");
    }
    mal::Status s = ctx.OmapSet(args[0].as_string(), args[1].as_string());
    if (!s.ok()) {
      return s;
    }
    return Value::Nil();
  });
  bind("cls_omap_del", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.empty() || !args[0].is_string()) {
      return ArgError("cls_omap_del", "(key)");
    }
    mal::Status s = ctx.OmapDel(args[0].as_string());
    if (!s.ok()) {
      return s;
    }
    return Value::Nil();
  });
  bind("cls_omap_list", [](ClsContext& ctx, const Args& args) -> HostResult {
    std::string prefix;
    if (!args.empty() && args[0].is_string()) {
      prefix = args[0].as_string();
    }
    auto entries = ctx.OmapList(prefix);
    if (!entries.ok()) {
      return entries.status();
    }
    auto table = script::Table::Make();
    for (const auto& [k, v] : entries.value()) {
      table->Set(script::TableKey(k), Value(v));
    }
    return Value(table);
  });
  bind("cls_xattr_get", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.empty() || !args[0].is_string()) {
      return ArgError("cls_xattr_get", "(key)");
    }
    auto v = ctx.XattrGet(args[0].as_string());
    if (!v.ok()) {
      if (v.status().code() == mal::Code::kNotFound) {
        return Value::Nil();
      }
      return v.status();
    }
    return Value(v.value());
  });
  bind("cls_xattr_set", [](ClsContext& ctx, const Args& args) -> HostResult {
    if (args.size() < 2 || !args[0].is_string() || !args[1].is_string()) {
      return ArgError("cls_xattr_set", "(key, value)");
    }
    mal::Status s = ctx.XattrSet(args[0].as_string(), args[1].as_string());
    if (!s.ok()) {
      return s;
    }
    return Value::Nil();
  });
  // Typed error escape hatch: cls_error("STALE_EPOCH", "msg") aborts the
  // method with that status, which propagates to the client unchanged.
  bind("cls_error", [](ClsContext&, const Args& args) -> HostResult {
    std::string code = args.size() > 0 && args[0].is_string() ? args[0].as_string() : "";
    std::string msg = args.size() > 1 ? args[1].ToString() : "class error";
    return mal::Status(CodeFromName(code), msg);
  });
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) {
    // Bitwise, so NaN matches itself and -0 differs from 0.
    double x = a.as_number();
    double y = b.as_number();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.Equals(b);
}

// Walks every value reachable from a runtime's globals in a fixed order,
// either recording it or checking it against a recording. Each container is
// entered once; the recording marks first visits, so a check that has matched
// so far knows which containers it has seen without a set of its own.
class StateWalk {
 public:
  struct Atom {
    Value value;          // tables, closures, host functions: by identity
    uint64_t extent = 0;  // tables: shape id; environments: number of names
    bool first = false;   // first visit of the container this atom names
  };

  static std::vector<Atom> Record(const script::Environment& globals) {
    std::vector<Atom> atoms;
    StateWalk walk(&atoms, nullptr);
    walk.Env(globals);
    return atoms;
  }

  static bool Matches(const std::vector<Atom>& atoms, const script::Environment& globals) {
    StateWalk walk(nullptr, &atoms);
    return walk.Env(globals) && walk.pos_ == atoms.size();
  }

 private:
  StateWalk(std::vector<Atom>* record, const std::vector<Atom>* expect)
      : record_(record), expect_(expect) {}

  bool Note(const Value& value, uint64_t extent) {
    if (record_ != nullptr) {
      record_->push_back({value, extent, false});
      return true;
    }
    if (pos_ == expect_->size()) {
      return false;
    }
    const Atom& atom = (*expect_)[pos_++];
    return atom.extent == extent && SameValue(atom.value, value);
  }

  // Called right after the Note of the container at `p`.
  bool FirstVisit(const void* p) {
    if (record_ == nullptr) {
      return (*expect_)[pos_ - 1].first;
    }
    record_->back().first = seen_.insert(p).second;
    return record_->back().first;
  }

  // A scope and its parents. Names are never removed from a scope, so an
  // unchanged count means unchanged names.
  bool Env(const script::Environment& env) {
    for (const script::Environment* e = &env; e != nullptr; e = e->parent().get()) {
      if (!Note(Value(), e->local_vars().size())) {
        return false;
      }
      if (!FirstVisit(e)) {
        return true;
      }
      for (const auto& [name, value] : e->local_vars()) {
        if (!Visit(value)) {
          return false;
        }
      }
    }
    return true;
  }

  // Shape ids are never reused and change on every key insert or erase, so
  // an unchanged shape means unchanged keys.
  bool Visit(const Value& value) {
    if (!Note(value, value.is_table() ? value.as_table()->shape_id() : 0)) {
      return false;
    }
    if (value.is_table()) {
      if (!FirstVisit(value.as_table().get())) {
        return true;
      }
      for (const auto& [key, entry] : value.as_table()->entries()) {
        if (!Visit(entry)) {
          return false;
        }
      }
    } else if (value.is_closure()) {
      const script::Closure& closure = *value.as_closure();
      if (!FirstVisit(&closure)) {
        return true;
      }
      if (closure.env() != nullptr && !Env(*closure.env())) {
        return false;
      }
      for (const std::shared_ptr<Value>& cell : closure.upvals()) {
        if (!Visit(*cell)) {
          return false;
        }
      }
    }
    return true;
  }

  std::vector<Atom>* record_;
  const std::vector<Atom>* expect_;
  size_t pos_ = 0;
  std::unordered_set<const void*> seen_;
};

}  // namespace

// A warm runtime: the interpreter with the stdlib, the cls_* bindings and the
// class chunk already run, plus a record of the state that left it in.
struct ClassRegistry::Runtime {
  Runtime() { BindContext(&interp, &slot); }
  Runtime(const Runtime&) = delete;  // the bindings hold &slot
  Runtime& operator=(const Runtime&) = delete;

  // Records the state after the chunk ran. A chunk whose top level touched
  // the object depends on the call that built it, so its runtime serves that
  // call only.
  void Seal() {
    reusable = slot.uses == 0;
    pristine = StateWalk::Record(*interp.globals());
    live_closures = interp.LiveClosures();
  }

  // True while a later call could not tell this runtime from a new one. A
  // closure alive beyond those at build time that the globals do not reach is
  // held by a reference cycle only the interpreter's teardown frees.
  bool Pristine() {
    return reusable && interp.LiveClosures() == live_closures &&
           StateWalk::Matches(pristine, *interp.globals());
  }

  ContextSlot slot;
  Interpreter interp;
  bool reusable = false;
  std::vector<StateWalk::Atom> pristine;
  size_t live_closures = 0;
};

ClassRegistry::ClassRegistry() = default;
ClassRegistry::~ClassRegistry() = default;

void ClassRegistry::RegisterNative(const std::string& cls, const std::string& method,
                                   Category category, NativeMethod fn) {
  native_[{cls, method}] = {category, std::move(fn)};
}

mal::Status ClassRegistry::InstallScript(const std::string& cls, const std::string& version,
                                         const std::string& source, Category category) {
  auto chunk = script::Compile(source);
  if (!chunk.ok()) {
    return chunk.status();
  }
  // Discover methods: run the chunk in a scratch interpreter with a dummy
  // context and record which globals became callable.
  const std::string scratch_oid = "scratch";
  osd::TxnObject staged(nullptr);
  osd::TxnLog log(scratch_oid);
  ClsContext scratch_ctx(scratch_oid, &staged, &log);
  ContextSlot slot;
  slot.ctx = &scratch_ctx;
  Interpreter scratch;
  BindContext(&scratch, &slot);
  std::vector<std::string> before = scratch.globals()->LocalNames();
  mal::Status s = scratch.Run(*chunk.value());
  if (!s.ok()) {
    return s;
  }
  ScriptClass sc;
  sc.version = version;
  sc.source = source;
  sc.category = category;
  sc.chunk = chunk.value();
  for (const auto& [name, value] : scratch.globals()->local_vars()) {
    if (value.is_closure() &&
        std::find(before.begin(), before.end(), name) == before.end()) {
      sc.methods.push_back(name);
    }
  }
  scripts_[cls] = std::move(sc);
  return mal::Status::Ok();
}

void ClassRegistry::RemoveScript(const std::string& cls) { scripts_.erase(cls); }

const std::string& ClassRegistry::ScriptVersion(const std::string& cls) const {
  static const std::string kAbsent;
  auto it = scripts_.find(cls);
  return it == scripts_.end() ? kAbsent : it->second.version;
}

bool ClassRegistry::HasMethod(const std::string& cls, const std::string& method) const {
  if (native_.count({cls, method}) != 0) {
    return true;
  }
  auto it = scripts_.find(cls);
  if (it == scripts_.end()) {
    return false;
  }
  const auto& methods = it->second.methods;
  return std::find(methods.begin(), methods.end(), method) != methods.end();
}

mal::Result<mal::Buffer> ClassRegistry::Execute(const std::string& cls,
                                                const std::string& method, ClsContext& ctx,
                                                const mal::Buffer& input, uint64_t budget,
                                                script::EngineStats* script_stats) {
  if (auto it = native_.find({cls, method}); it != native_.end()) {
    return it->second.second(ctx, input);
  }
  auto it = scripts_.find(cls);
  if (it == scripts_.end()) {
    return mal::Status::NotFound("no object class '" + cls + "'");
  }
  ScriptClass& sc = it->second;
  script::EngineStats before;
  const bool fresh = sc.runtime == nullptr;
  if (fresh) {
    sc.runtime = std::make_unique<Runtime>();
  } else {
    before = sc.runtime->interp.stats();
  }
  Runtime& rt = *sc.runtime;
  rt.slot.ctx = &ctx;
  rt.interp.set_instruction_budget(budget);
  auto out = [&]() -> mal::Result<mal::Buffer> {
    if (fresh) {
      mal::Status s = rt.interp.Run(*sc.chunk);
      if (!s.ok()) {
        return s;
      }
      rt.Seal();
    }
    auto result = rt.interp.CallGlobal(method, {Value(input.ToString())});
    if (!result.ok()) {
      if (result.status().code() == mal::Code::kNotFound) {
        return mal::Status::NotFound("no method '" + method + "' in class '" + cls + "'");
      }
      return result.status();
    }
    const Value& value = result.value();
    if (value.is_nil()) {
      return mal::Buffer();
    }
    return mal::Buffer::FromString(value.ToString());
  }();
  rt.slot.ctx = nullptr;
  rt.interp.print_output().clear();
  if (script_stats != nullptr) {
    // Accumulated even on error: aborted scripts still consumed budget.
    script_stats->AddDelta(rt.interp.stats(), before);
  }
  if (!out.ok() || !rt.Pristine()) {
    sc.runtime.reset();  // the next call builds a new one
  }
  return out;
}

std::vector<MethodInfo> ClassRegistry::ListMethods() const {
  std::vector<MethodInfo> methods;
  for (const auto& [key, entry] : native_) {
    methods.push_back({key.first, key.second, entry.first, false});
  }
  for (const auto& [cls, sc] : scripts_) {
    for (const std::string& method : sc.methods) {
      methods.push_back({cls, method, sc.category, true});
    }
  }
  return methods;
}

size_t ClassRegistry::NumClasses() const {
  std::set<std::string> names;
  for (const auto& [key, entry] : native_) {
    names.insert(key.first);
  }
  for (const auto& [cls, sc] : scripts_) {
    names.insert(cls);
  }
  return names.size();
}

std::map<Category, size_t> ClassRegistry::MethodCountByCategory() const {
  std::map<Category, size_t> counts;
  for (const MethodInfo& info : ListMethods()) {
    ++counts[info.category];
  }
  return counts;
}

}  // namespace mal::cls
