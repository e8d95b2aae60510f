#include "src/script/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/script/compiler.h"
#include "src/script/parser.h"
#include "src/script/stdlib.h"
#include "src/script/vm.h"

namespace mal::script {

Value Environment::Get(const std::string& name) const {
  const Environment* env = this;
  while (env != nullptr) {
    auto it = env->vars_.find(name);
    if (it != env->vars_.end()) {
      return it->second;
    }
    env = env->parent_.get();
  }
  return Value::Nil();
}

void Environment::Set(const std::string& name, Value value) {
  Environment* env = this;
  Environment* root = this;
  while (env != nullptr) {
    auto it = env->vars_.find(name);
    if (it != env->vars_.end()) {
      it->second = std::move(value);
      return;
    }
    root = env;
    env = env->parent_.get();
  }
  root->vars_[name] = std::move(value);  // implicit global
}

void Environment::Define(const std::string& name, Value value) {
  vars_[name] = std::move(value);
}

std::vector<std::string> Environment::LocalNames() const {
  std::vector<std::string> names;
  names.reserve(vars_.size());
  for (const auto& [name, value] : vars_) {
    names.push_back(name);
  }
  return names;
}

Value* Environment::FindLocalSlot(const std::string& name) {
  auto it = vars_.find(name);
  return it == vars_.end() ? nullptr : &it->second;
}

Value* Environment::DefineSlot(const std::string& name) { return &vars_[name]; }

namespace {

// Process-wide Compile() cache. Daemons re-install the same interface source
// on every version bump and health rules recompile per tick; keying by source
// text means each distinct script pays for parsing + bytecode translation
// once. Bounded: on overflow the whole map is dropped (chunks stay alive via
// the shared_ptrs already handed out).
struct CompileCache {
  std::map<std::string, std::shared_ptr<Block>> chunks;
  CompileCacheStats stats;
};

CompileCache& TheCompileCache() {
  static CompileCache* cache = new CompileCache();
  return *cache;
}

constexpr size_t kCompileCacheCap = 512;

}  // namespace

Result<std::shared_ptr<Block>> Compile(const std::string& source) {
  CompileCache& cache = TheCompileCache();
  auto it = cache.chunks.find(source);
  if (it != cache.chunks.end()) {
    ++cache.stats.hits;
    return it->second;
  }
  ++cache.stats.misses;
  Result<std::shared_ptr<Block>> parsed = Parse(source);
  if (!parsed.ok()) {
    return parsed;  // parse errors are not cached
  }
  std::shared_ptr<Block> chunk = parsed.value();
  Result<std::shared_ptr<const CompiledChunk>> compiled = CompileToBytecode(*chunk);
  if (compiled.ok()) {
    chunk->compiled = compiled.value();
  }
  // On translation failure the chunk still runs on the tree-walker.
  if (cache.chunks.size() >= kCompileCacheCap) {
    cache.chunks.clear();
  }
  cache.chunks.emplace(source, chunk);
  return chunk;
}

CompileCacheStats GetCompileCacheStats() { return TheCompileCache().stats; }

namespace {

// Control-flow signal threaded through statement execution.
enum class Flow { kNormal, kBreak, kReturn };

Status RuntimeError(int line, const std::string& msg) {
  return Status::InvalidArgument("runtime error at line " + std::to_string(line) + ": " + msg);
}

// True when MAL_SCRIPT_ORACLE forces the tree-walker process-wide. Checked
// per top-level entry (not per op), so the getenv cost is negligible and
// differential harnesses can flip it at runtime.
bool OracleForcedByEnv() {
  const char* v = std::getenv("MAL_SCRIPT_ORACLE");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

// Walks the AST. One Evaluator per top-level entry; recursion shares the
// interpreter's budget counter.
class Evaluator {
 public:
  explicit Evaluator(Interpreter* interp) : interp_(interp) {}

  Status ExecBlock(const Block& block, const std::shared_ptr<Environment>& env, Flow* flow,
                   Value* ret) {
    for (const StmtPtr& stmt : block.stmts) {
      Status s = ExecStmt(*stmt, env, flow, ret);
      if (!s.ok()) {
        return s;
      }
      if (*flow != Flow::kNormal) {
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  Result<Value> CallValue(const Value& callee, const std::vector<Value>& args, int line) {
    if (callee.is_host_function()) {
      return callee.as_host_function()->fn(*interp_, args);
    }
    if (!callee.is_closure()) {
      return RuntimeError(line, std::string("attempt to call a ") + callee.TypeName() +
                                    " value");
    }
    const auto& closure = callee.as_closure();
    if (closure->is_compiled()) {
      // Compiled-form closures only run on the VM (they have no AST body);
      // it does its own depth/budget accounting on the shared counters.
      return interp_->EnsureVm().CallClosure(callee, args, line);
    }
    if (++interp_->call_depth_ > kMaxScriptCallDepth) {
      --interp_->call_depth_;
      return RuntimeError(line, "call stack overflow");
    }
    auto frame = std::make_shared<Environment>(closure->env());
    const auto& params = closure->params();
    for (size_t i = 0; i < params.size(); ++i) {
      frame->Define(params[i], i < args.size() ? args[i] : Value::Nil());
    }
    if (closure->is_vararg()) {
      auto rest = Table::Make();
      for (size_t i = params.size(); i < args.size(); ++i) {
        rest->Set(TableKey(static_cast<double>(i - params.size() + 1)), args[i]);
      }
      frame->Define("arg", Value(rest));
    }
    Flow flow = Flow::kNormal;
    Value ret;
    Status s = ExecBlock(*closure->body(), frame, &flow, &ret);
    --interp_->call_depth_;
    if (!s.ok()) {
      return s;
    }
    return flow == Flow::kReturn ? ret : Value::Nil();
  }

 private:
  Status Tick(int line) {
    if (interp_->instruction_budget_ != 0 &&
        ++interp_->instructions_executed_ > interp_->instruction_budget_) {
      return Status::Aborted("script exceeded instruction budget at line " +
                             std::to_string(line));
    }
    return Status::Ok();
  }

  Status ExecStmt(const Stmt& stmt, const std::shared_ptr<Environment>& env, Flow* flow,
                  Value* ret) {
    Status tick = Tick(stmt.line);
    if (!tick.ok()) {
      return tick;
    }
    switch (stmt.kind) {
      case Stmt::Kind::kExpr: {
        Result<Value> v = Eval(*stmt.expr, env);
        return v.status();
      }
      case Stmt::Kind::kAssign:
        return ExecAssign(stmt, env);
      case Stmt::Kind::kLocal:
        return ExecLocal(stmt, env);
      case Stmt::Kind::kIf:
        return ExecIf(stmt, env, flow, ret);
      case Stmt::Kind::kWhile:
        return ExecWhile(stmt, env, flow, ret);
      case Stmt::Kind::kRepeat:
        return ExecRepeat(stmt, env, flow, ret);
      case Stmt::Kind::kNumericFor:
        return ExecNumericFor(stmt, env, flow, ret);
      case Stmt::Kind::kGenericFor:
        return ExecGenericFor(stmt, env, flow, ret);
      case Stmt::Kind::kReturn: {
        if (stmt.expr != nullptr) {
          Result<Value> v = Eval(*stmt.expr, env);
          if (!v.ok()) {
            return v.status();
          }
          *ret = std::move(v).value();
        } else {
          *ret = Value::Nil();
        }
        *flow = Flow::kReturn;
        return Status::Ok();
      }
      case Stmt::Kind::kBreak:
        *flow = Flow::kBreak;
        return Status::Ok();
      case Stmt::Kind::kDo: {
        auto scope = std::make_shared<Environment>(env);
        return ExecBlock(stmt.body, scope, flow, ret);
      }
    }
    return Status::Internal("unknown statement kind");
  }

  Status ExecAssign(const Stmt& stmt, const std::shared_ptr<Environment>& env) {
    // Evaluate all values first (supports `a, b = b, a`).
    std::vector<Value> values;
    values.reserve(stmt.values.size());
    for (const ExprPtr& ve : stmt.values) {
      Result<Value> v = Eval(*ve, env);
      if (!v.ok()) {
        return v.status();
      }
      values.push_back(std::move(v).value());
    }
    for (size_t i = 0; i < stmt.targets.size(); ++i) {
      Value v = i < values.size() ? values[i] : Value::Nil();
      const Expr& target = *stmt.targets[i];
      if (target.kind == Expr::Kind::kName) {
        env->Set(target.name, std::move(v));
      } else {
        Result<Value> obj = Eval(*target.object, env);
        if (!obj.ok()) {
          return obj.status();
        }
        if (!obj.value().is_table()) {
          return RuntimeError(target.line, std::string("attempt to index a ") +
                                               obj.value().TypeName() + " value");
        }
        Result<Value> key = Eval(*target.key, env);
        if (!key.ok()) {
          return key.status();
        }
        Result<TableKey> tk = TableKey::FromValue(key.value());
        if (!tk.ok()) {
          return tk.status();
        }
        obj.value().as_table()->Set(tk.value(), std::move(v));
      }
    }
    return Status::Ok();
  }

  Status ExecLocal(const Stmt& stmt, const std::shared_ptr<Environment>& env) {
    std::vector<Value> values;
    values.reserve(stmt.local_values.size());
    for (const ExprPtr& ve : stmt.local_values) {
      Result<Value> v = Eval(*ve, env);
      if (!v.ok()) {
        return v.status();
      }
      values.push_back(std::move(v).value());
    }
    for (size_t i = 0; i < stmt.local_names.size(); ++i) {
      env->Define(stmt.local_names[i], i < values.size() ? values[i] : Value::Nil());
    }
    return Status::Ok();
  }

  Status ExecIf(const Stmt& stmt, const std::shared_ptr<Environment>& env, Flow* flow,
                Value* ret) {
    for (size_t i = 0; i < stmt.conditions.size(); ++i) {
      Result<Value> cond = Eval(*stmt.conditions[i], env);
      if (!cond.ok()) {
        return cond.status();
      }
      if (cond.value().Truthy()) {
        auto scope = std::make_shared<Environment>(env);
        return ExecBlock(stmt.blocks[i], scope, flow, ret);
      }
    }
    if (stmt.else_block != nullptr) {
      auto scope = std::make_shared<Environment>(env);
      return ExecBlock(*stmt.else_block, scope, flow, ret);
    }
    return Status::Ok();
  }

  Status ExecWhile(const Stmt& stmt, const std::shared_ptr<Environment>& env, Flow* flow,
                   Value* ret) {
    while (true) {
      Status tick = Tick(stmt.line);
      if (!tick.ok()) {
        return tick;
      }
      Result<Value> cond = Eval(*stmt.expr, env);
      if (!cond.ok()) {
        return cond.status();
      }
      if (!cond.value().Truthy()) {
        return Status::Ok();
      }
      auto scope = std::make_shared<Environment>(env);
      Status s = ExecBlock(stmt.body, scope, flow, ret);
      if (!s.ok()) {
        return s;
      }
      if (*flow == Flow::kBreak) {
        *flow = Flow::kNormal;
        return Status::Ok();
      }
      if (*flow == Flow::kReturn) {
        return Status::Ok();
      }
    }
  }

  Status ExecRepeat(const Stmt& stmt, const std::shared_ptr<Environment>& env, Flow* flow,
                    Value* ret) {
    while (true) {
      Status tick = Tick(stmt.line);
      if (!tick.ok()) {
        return tick;
      }
      auto scope = std::make_shared<Environment>(env);
      Status s = ExecBlock(stmt.body, scope, flow, ret);
      if (!s.ok()) {
        return s;
      }
      if (*flow == Flow::kBreak) {
        *flow = Flow::kNormal;
        return Status::Ok();
      }
      if (*flow == Flow::kReturn) {
        return Status::Ok();
      }
      // Condition is evaluated in the loop body's scope, like Lua.
      Result<Value> cond = Eval(*stmt.expr, scope);
      if (!cond.ok()) {
        return cond.status();
      }
      if (cond.value().Truthy()) {
        return Status::Ok();
      }
    }
  }

  Status ExecNumericFor(const Stmt& stmt, const std::shared_ptr<Environment>& env, Flow* flow,
                        Value* ret) {
    Result<Value> start = Eval(*stmt.for_start, env);
    if (!start.ok()) {
      return start.status();
    }
    Result<Value> stop = Eval(*stmt.for_stop, env);
    if (!stop.ok()) {
      return stop.status();
    }
    double step = 1.0;
    if (stmt.for_step != nullptr) {
      Result<Value> sv = Eval(*stmt.for_step, env);
      if (!sv.ok()) {
        return sv.status();
      }
      if (!sv.value().is_number()) {
        return RuntimeError(stmt.line, "for step must be a number");
      }
      step = sv.value().as_number();
    }
    if (!start.value().is_number() || !stop.value().is_number()) {
      return RuntimeError(stmt.line, "for bounds must be numbers");
    }
    if (step == 0.0) {
      return RuntimeError(stmt.line, "for step must be nonzero");
    }
    for (double i = start.value().as_number();
         step > 0 ? i <= stop.value().as_number() : i >= stop.value().as_number(); i += step) {
      Status tick = Tick(stmt.line);
      if (!tick.ok()) {
        return tick;
      }
      auto scope = std::make_shared<Environment>(env);
      scope->Define(stmt.for_var, Value(i));
      Status s = ExecBlock(stmt.body, scope, flow, ret);
      if (!s.ok()) {
        return s;
      }
      if (*flow == Flow::kBreak) {
        *flow = Flow::kNormal;
        return Status::Ok();
      }
      if (*flow == Flow::kReturn) {
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  // `for k, v in t do` iterates table entries in key order. We accept a table
  // directly or the result of pairs(t) (which returns the table itself).
  Status ExecGenericFor(const Stmt& stmt, const std::shared_ptr<Environment>& env, Flow* flow,
                        Value* ret) {
    Result<Value> iterable = Eval(*stmt.for_iterable, env);
    if (!iterable.ok()) {
      return iterable.status();
    }
    if (!iterable.value().is_table()) {
      return RuntimeError(stmt.line, "for-in expects a table (or pairs(table))");
    }
    // Snapshot keys so body mutations don't invalidate iteration.
    std::vector<std::pair<TableKey, Value>> entries(
        iterable.value().as_table()->entries().begin(),
        iterable.value().as_table()->entries().end());
    for (const auto& [key, value] : entries) {
      Status tick = Tick(stmt.line);
      if (!tick.ok()) {
        return tick;
      }
      auto scope = std::make_shared<Environment>(env);
      Value key_value = std::holds_alternative<double>(key.k)
                            ? Value(std::get<double>(key.k))
                            : Value(std::get<std::string>(key.k));
      scope->Define(stmt.for_names[0], key_value);
      if (stmt.for_names.size() > 1) {
        scope->Define(stmt.for_names[1], value);
      }
      Status s = ExecBlock(stmt.body, scope, flow, ret);
      if (!s.ok()) {
        return s;
      }
      if (*flow == Flow::kBreak) {
        *flow = Flow::kNormal;
        return Status::Ok();
      }
      if (*flow == Flow::kReturn) {
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  Result<Value> Eval(const Expr& expr, const std::shared_ptr<Environment>& env) {
    Status tick = Tick(expr.line);
    if (!tick.ok()) {
      return tick;
    }
    switch (expr.kind) {
      case Expr::Kind::kNil:
        return Value::Nil();
      case Expr::Kind::kTrue:
        return Value(true);
      case Expr::Kind::kFalse:
        return Value(false);
      case Expr::Kind::kNumber:
        return Value(expr.number);
      case Expr::Kind::kString:
        return Value(expr.string_value);
      case Expr::Kind::kVararg:
        return env->Get("arg");
      case Expr::Kind::kName:
        return env->Get(expr.name);
      case Expr::Kind::kIndex: {
        Result<Value> obj = Eval(*expr.object, env);
        if (!obj.ok()) {
          return obj;
        }
        if (obj.value().is_string()) {
          // Allow s:len()-free length via #; string indexing is not supported.
          return RuntimeError(expr.line, "attempt to index a string value");
        }
        if (!obj.value().is_table()) {
          return RuntimeError(expr.line, std::string("attempt to index a ") +
                                             obj.value().TypeName() + " value");
        }
        Result<Value> key = Eval(*expr.key, env);
        if (!key.ok()) {
          return key;
        }
        Result<TableKey> tk = TableKey::FromValue(key.value());
        if (!tk.ok()) {
          return tk.status();
        }
        return obj.value().as_table()->Get(tk.value());
      }
      case Expr::Kind::kBinary:
        return EvalBinary(expr, env);
      case Expr::Kind::kUnary:
        return EvalUnary(expr, env);
      case Expr::Kind::kCall: {
        Result<Value> callee = Eval(*expr.callee, env);
        if (!callee.ok()) {
          return callee;
        }
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const ExprPtr& a : expr.args) {
          Result<Value> v = Eval(*a, env);
          if (!v.ok()) {
            return v;
          }
          args.push_back(std::move(v).value());
        }
        return CallValue(callee.value(), args, expr.line);
      }
      case Expr::Kind::kFunction: {
        auto closure = std::make_shared<Closure>(expr.params, expr.is_vararg, expr.body, env);
        interp_->TrackClosure(closure);
        return Value(std::move(closure));
      }
      case Expr::Kind::kTableCtor: {
        auto table = Table::Make();
        for (size_t i = 0; i < expr.array_items.size(); ++i) {
          Result<Value> v = Eval(*expr.array_items[i], env);
          if (!v.ok()) {
            return v;
          }
          table->Set(TableKey(static_cast<double>(i + 1)), std::move(v).value());
        }
        for (const auto& [key_expr, value_expr] : expr.fields) {
          Result<Value> key = Eval(*key_expr, env);
          if (!key.ok()) {
            return key;
          }
          Result<Value> value = Eval(*value_expr, env);
          if (!value.ok()) {
            return value;
          }
          Result<TableKey> tk = TableKey::FromValue(key.value());
          if (!tk.ok()) {
            return tk.status();
          }
          table->Set(tk.value(), std::move(value).value());
        }
        return Value(std::move(table));
      }
    }
    return Status::Internal("unknown expression kind");
  }

  Result<Value> EvalBinary(const Expr& expr, const std::shared_ptr<Environment>& env) {
    // Short-circuit logic first.
    if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
      Result<Value> lhs = Eval(*expr.lhs, env);
      if (!lhs.ok()) {
        return lhs;
      }
      bool lhs_truthy = lhs.value().Truthy();
      if (expr.bin_op == BinOp::kAnd) {
        return lhs_truthy ? Eval(*expr.rhs, env) : lhs;
      }
      return lhs_truthy ? lhs : Eval(*expr.rhs, env);
    }
    Result<Value> lhs = Eval(*expr.lhs, env);
    if (!lhs.ok()) {
      return lhs;
    }
    Result<Value> rhs = Eval(*expr.rhs, env);
    if (!rhs.ok()) {
      return rhs;
    }
    const Value& a = lhs.value();
    const Value& b = rhs.value();
    switch (expr.bin_op) {
      case BinOp::kEq:
        return Value(a.Equals(b));
      case BinOp::kNe:
        return Value(!a.Equals(b));
      case BinOp::kConcat:
        if ((a.is_string() || a.is_number()) && (b.is_string() || b.is_number())) {
          return Value(a.ToString() + b.ToString());
        }
        return RuntimeError(expr.line, std::string("attempt to concatenate a ") +
                                           (a.is_string() || a.is_number() ? b.TypeName()
                                                                           : a.TypeName()) +
                                           " value");
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        if (a.is_number() && b.is_number()) {
          double x = a.as_number();
          double y = b.as_number();
          switch (expr.bin_op) {
            case BinOp::kLt:
              return Value(x < y);
            case BinOp::kLe:
              return Value(x <= y);
            case BinOp::kGt:
              return Value(x > y);
            default:
              return Value(x >= y);
          }
        }
        if (a.is_string() && b.is_string()) {
          int cmp = a.as_string().compare(b.as_string());
          switch (expr.bin_op) {
            case BinOp::kLt:
              return Value(cmp < 0);
            case BinOp::kLe:
              return Value(cmp <= 0);
            case BinOp::kGt:
              return Value(cmp > 0);
            default:
              return Value(cmp >= 0);
          }
        }
        return RuntimeError(expr.line, std::string("attempt to compare ") + a.TypeName() +
                                           " with " + b.TypeName());
      }
      default:
        break;
    }
    // Arithmetic.
    if (!a.is_number() || !b.is_number()) {
      return RuntimeError(expr.line, std::string("attempt to perform arithmetic on a ") +
                                         (a.is_number() ? b.TypeName() : a.TypeName()) +
                                         " value");
    }
    double x = a.as_number();
    double y = b.as_number();
    switch (expr.bin_op) {
      case BinOp::kAdd:
        return Value(x + y);
      case BinOp::kSub:
        return Value(x - y);
      case BinOp::kMul:
        return Value(x * y);
      case BinOp::kDiv:
        return Value(x / y);  // IEEE semantics, inf on /0 like Lua
      case BinOp::kMod:
        return Value(x - std::floor(x / y) * y);  // Lua modulo
      case BinOp::kPow:
        return Value(std::pow(x, y));
      default:
        return Status::Internal("unhandled binary op");
    }
  }

  Result<Value> EvalUnary(const Expr& expr, const std::shared_ptr<Environment>& env) {
    Result<Value> operand = Eval(*expr.lhs, env);
    if (!operand.ok()) {
      return operand;
    }
    const Value& v = operand.value();
    switch (expr.un_op) {
      case UnOp::kNeg:
        if (!v.is_number()) {
          return RuntimeError(expr.line, std::string("attempt to negate a ") + v.TypeName() +
                                             " value");
        }
        return Value(-v.as_number());
      case UnOp::kNot:
        return Value(!v.Truthy());
      case UnOp::kLen:
        if (v.is_string()) {
          return Value(static_cast<double>(v.as_string().size()));
        }
        if (v.is_table()) {
          return Value(static_cast<double>(v.as_table()->ArrayLength()));
        }
        return RuntimeError(expr.line, std::string("attempt to get length of a ") +
                                           v.TypeName() + " value");
    }
    return Status::Internal("unhandled unary op");
  }

  Interpreter* interp_;
};

Interpreter::Interpreter() : globals_(std::make_shared<Environment>()) {
  InstallStdlib(this);
}

Interpreter::~Interpreter() {
  vm_.reset();
  for (const std::weak_ptr<Closure>& weak : closures_) {
    // Locked for the duration: clearing a scope or cell can free others.
    if (std::shared_ptr<Closure> closure = weak.lock()) {
      for (const std::shared_ptr<Value>& cell : closure->upvals()) {
        *cell = Value::Nil();
      }
      for (Environment* env = closure->env().get(); env != nullptr;
           env = env->parent().get()) {
        env->Clear();
      }
    }
  }
  globals_->Clear();
}

void Interpreter::TrackClosure(const std::shared_ptr<Closure>& closure) {
  auto dead = [](const std::weak_ptr<Closure>& weak) { return weak.expired(); };
  if (closures_.size() >= closures_compact_at_) {
    closures_.erase(std::remove_if(closures_.begin(), closures_.end(), dead), closures_.end());
    closures_compact_at_ = std::max<size_t>(64, 2 * closures_.size());
  }
  closures_.push_back(closure);
}

size_t Interpreter::LiveClosures() const {
  size_t live = 0;
  for (const std::weak_ptr<Closure>& weak : closures_) {
    live += weak.expired() ? 0 : 1;
  }
  return live;
}

void Interpreter::RegisterHostFunction(const std::string& name, HostFunction fn) {
  globals_->Define(name, Value::Host(name, std::move(fn)));
}

bool Interpreter::UseVm() const {
  switch (engine_) {
    case Engine::kVm:
      return true;
    case Engine::kOracle:
      return false;
    case Engine::kAuto:
      return !OracleForcedByEnv();
  }
  return true;
}

Vm& Interpreter::EnsureVm() {
  if (vm_ == nullptr) {
    vm_ = std::make_shared<Vm>(this);
  }
  return *vm_;
}

Result<Value> Interpreter::CallAstClosureFromVm(const Value& callee,
                                                const std::vector<Value>& args, int line) {
  // Budget counter deliberately NOT reset: this is a nested call inside a
  // VM frame, sharing the top-level entry's budget.
  Evaluator eval(this);
  return eval.CallValue(callee, args, line);
}

Status Interpreter::Run(const Block& chunk) {
  instructions_executed_ = 0;
  Status s;
  if (chunk.compiled != nullptr && UseVm()) {
    ++stats_.vm_runs;
    s = EnsureVm().RunChunk(chunk.compiled);
  } else {
    ++stats_.oracle_runs;
    Evaluator eval(this);
    Flow flow = Flow::kNormal;
    Value ret;
    s = eval.ExecBlock(chunk, globals_, &flow, &ret);
  }
  stats_.instructions += instructions_executed_;
  return s;
}

Status Interpreter::RunSource(const std::string& source) {
  Result<std::shared_ptr<Block>> chunk = Compile(source);
  if (!chunk.ok()) {
    return chunk.status();
  }
  return Run(*chunk.value());
}

Result<Value> Interpreter::CallGlobal(const std::string& name, const std::vector<Value>& args) {
  Value fn = globals_->Get(name);
  if (fn.is_nil()) {
    return Status::NotFound("no global function '" + name + "'");
  }
  return Call(fn, args);
}

Result<Value> Interpreter::Call(const Value& callee, const std::vector<Value>& args) {
  instructions_executed_ = 0;
  // Dispatch by closure form, not by the engine knob: a compiled closure has
  // no AST body, so it must run on the VM even when the oracle is pinned
  // (and vice versa — Evaluator::CallValue routes each form to its engine).
  if (callee.is_closure() && callee.as_closure()->is_compiled()) {
    ++stats_.vm_runs;
    Result<Value> r = EnsureVm().CallClosure(callee, args, 0);
    stats_.instructions += instructions_executed_;
    return r;
  }
  ++stats_.oracle_runs;
  Evaluator eval(this);
  Result<Value> r = eval.CallValue(callee, args, 0);
  stats_.instructions += instructions_executed_;
  return r;
}

}  // namespace mal::script
