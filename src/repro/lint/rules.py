"""The rule catalog: the repo's bit-identity invariants as machine checks.

Five families, numbered by family:

========== ===================================================================
REPRO-D1xx Determinism — no unseeded or global RNG, no stdlib ``random``,
           no wall-clock reads in simulation/benchmark code.
REPRO-D2xx RNG ownership — components receive a seed or ``Generator``;
           they never conjure one ad hoc in hot-path methods.
REPRO-C3xx Concurrency — ``_GUARDED_BY`` lock discipline, notify-under-lock,
           no undeclared locks.
REPRO-O4xx Ordering — no iteration over unordered collections in the
           simulation core, where order feeds RNG draws and results.
REPRO-P5xx Oracle parity — every indexed fast path declares its brute-force
           ``_scan`` twin, so optimisations cannot land without their oracle.
========== ===================================================================

Every rule documents the bad/good shape in its docstring; the fixture tests
in ``tests/test_lint.py`` hold each rule to firing on the bad shape and
staying silent on the good one.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, Optional, Sequence

from .core import Finding, LintModule, Rule, register

#: Dotted-module prefixes of the deterministic simulation core.  Wall-clock
#: and ordering hazards inside these packages change simulated behaviour.
SIM_PACKAGES = ("repro.core", "repro.crowd")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolved_call_name(module: LintModule, node: ast.Call) -> Optional[str]:
    """The import-resolved dotted name of a call's target, if resolvable."""
    name = dotted_name(node.func)
    if name is None:
        return None
    return module.resolve(name)


def enclosing_functions(node: ast.AST) -> list[ast.FunctionDef]:
    """Innermost-first stack of function defs lexically containing ``node``."""
    stack: list[ast.FunctionDef] = []
    current = getattr(node, "parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.append(current)
        current = getattr(current, "parent", None)
    return stack


def _parameter_names(function: ast.FunctionDef) -> set[str]:
    args = function.args
    names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


# ---------------------------------------------------------------------------
# Family D1: determinism
# ---------------------------------------------------------------------------


@register
class UnseededRngRule(Rule):
    """``np.random.default_rng()`` without a seed draws from OS entropy.

    Bad::   rng = np.random.default_rng()
    Good::  rng = np.random.default_rng(seed)
    """

    rule_id = "REPRO-D101"
    name = "unseeded-rng"
    description = "np.random.default_rng() must be seeded explicitly"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if resolved_call_name(module, node) != "numpy.random.default_rng":
                continue
            unseeded = not node.args and not node.keywords
            if node.args and (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            ):
                unseeded = True
            if unseeded:
                yield self.finding(
                    module,
                    node,
                    "default_rng() without a seed is entropy-dependent; pass "
                    "the component's configured seed",
                )


#: numpy.random module-level functions that drive the shared global RNG.
_GLOBAL_NUMPY_RNG = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "gamma", "geometric", "get_state", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "poisson", "power", "rand", "randint", "randn",
        "random", "random_integers", "random_sample", "ranf", "rayleigh",
        "sample", "seed", "set_state", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    }
)


@register
class GlobalNumpyRandomRule(Rule):
    """Module-level ``np.random.*`` draws mutate one hidden global stream.

    Bad::   np.random.seed(0); x = np.random.rand()
    Good::  rng = np.random.default_rng(seed); x = rng.random()
    """

    rule_id = "REPRO-D102"
    name = "global-numpy-rng"
    description = "no module-level np.random.* draws (hidden global state)"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                resolved = resolved_call_name(module, node)
                if (
                    resolved is not None
                    and resolved.startswith("numpy.random.")
                    and resolved.rsplit(".", 1)[1] in _GLOBAL_NUMPY_RNG
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{resolved} uses numpy's hidden global RNG; draw from "
                        "an owned, seeded Generator instead",
                    )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module == "numpy.random"
                and node.level == 0
            ):
                for alias in node.names:
                    if alias.name in _GLOBAL_NUMPY_RNG:
                        yield self.finding(
                            module,
                            node,
                            f"importing numpy.random.{alias.name} binds the "
                            "hidden global RNG; use a seeded Generator",
                        )


@register
class StdlibRandomRule(Rule):
    """The stdlib ``random`` module is a process-global, unseeded-by-default
    stream; the repo standardises on owned numpy Generators.

    Bad::   import random; random.shuffle(items)
    Good::  rng.permutation(len(items))
    """

    rule_id = "REPRO-D103"
    name = "stdlib-random"
    description = "no stdlib `random` module (process-global stream)"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module,
                            node,
                            "stdlib `random` is a process-global stream; use "
                            "a seeded np.random.Generator",
                        )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module == "random"
                and node.level == 0
            ):
                yield self.finding(
                    module,
                    node,
                    "stdlib `random` is a process-global stream; use a "
                    "seeded np.random.Generator",
                )


#: Call targets that read the host's wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """Wall-clock reads inside simulation or benchmark-producing code leak
    host time into results that must be functions of (config, seed) only.
    Simulated time is ``platform.now``; legitimate wall-timing sites (bench
    harness timers, engine deadlines) carry an allow pragma.

    Bad::   started = time.time()
    Good::  started = platform.now     # simulated clock
    """

    rule_id = "REPRO-D104"
    name = "wall-clock"
    description = "no wall-clock reads in repro.* / benchmarks (sim time only)"

    def applies_to(self, module: LintModule) -> bool:
        return module.in_package("repro", "benchmarks")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolved_call_name(module, node)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{resolved}() reads the host clock; simulated behaviour "
                    "must depend only on (config, seed). Use the platform "
                    "clock, or pragma-justify a wall-timing site",
                )


# ---------------------------------------------------------------------------
# Family D2: RNG ownership
# ---------------------------------------------------------------------------


@register
class RngOwnershipRule(Rule):
    """Components receive their randomness; they do not construct it ad hoc.

    A ``default_rng`` call in library code must sit in a constructor
    (``__init__`` / ``__post_init__``) or in a function that takes the seed
    (or an existing ``rng``) as a parameter — otherwise a hot-path method is
    inventing a private stream whose draws no equivalence oracle replays.

    Bad::   def pick(self, items): rng = np.random.default_rng(0)
    Good::  def __init__(self, seed): self._rng = np.random.default_rng(seed)
    """

    rule_id = "REPRO-D201"
    name = "rng-ownership"
    description = "default_rng only in constructors or seed-parameterised functions"

    _CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__set_name__"})
    _SEED_PARAMS = frozenset({"seed", "rng", "seed_sequence", "entropy"})

    def applies_to(self, module: LintModule) -> bool:
        return module.in_package("repro")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if resolved_call_name(module, node) != "numpy.random.default_rng":
                continue
            functions = enclosing_functions(node)
            if not functions:
                yield self.finding(
                    module,
                    node,
                    "module-level default_rng creates an import-time stream "
                    "no caller owns; construct it from a seed parameter",
                )
                continue
            if any(fn.name in self._CONSTRUCTORS for fn in functions):
                continue
            if any(
                self._SEED_PARAMS & _parameter_names(fn) for fn in functions
            ):
                continue
            yield self.finding(
                module,
                node,
                f"{functions[0].name}() constructs an ad-hoc Generator; "
                "accept a seed/rng parameter or build it in __init__",
            )


# ---------------------------------------------------------------------------
# Family C3: concurrency / lock discipline
# ---------------------------------------------------------------------------


def _guarded_by_map(class_def: ast.ClassDef) -> Optional[dict[str, tuple[str, ...]]]:
    """Parse a class-body ``_GUARDED_BY = {"_cond": ("_field", ...)}``."""
    for statement in class_def.body:
        target_name = None
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, ast.Name):
                target_name = target.id
                value = statement.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            target_name = statement.target.id
            value = statement.value
        if target_name != "_GUARDED_BY" or not isinstance(value, ast.Dict):
            continue
        mapping: dict[str, tuple[str, ...]] = {}
        for key, fields in zip(value.keys, value.values, strict=True):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            if not isinstance(fields, (ast.Tuple, ast.List, ast.Set)):
                return None
            names = []
            for element in fields.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                names.append(element.value)
            mapping[key.value] = tuple(names)
        return mapping
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``x`` when ``node`` is exactly ``self.x``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _LockWalker:
    """Shared traversal tracking which ``with self.<lock>`` blocks are open."""

    def __init__(self, lock_names: frozenset[str]) -> None:
        self.lock_names = lock_names

    def walk(
        self, node: ast.AST, held: frozenset[str]
    ) -> Iterator[tuple[ast.AST, frozenset[str]]]:
        """Yield (node, locks-held) for every node under ``node``."""
        yield node, held
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function body runs later, on an unknown thread; be
            # conservative and treat it as running without the lock.
            held = frozenset()
        if isinstance(node, ast.With):
            acquired = set(held)
            for item in node.items:
                lock = _self_attr(item.context_expr)
                if lock in self.lock_names:
                    acquired.add(lock)
            for item in node.items:
                yield from self.walk(item, held)
            for statement in node.body:
                yield from self.walk(statement, frozenset(acquired))
            return
        for child in ast.iter_child_nodes(node):
            yield from self.walk(child, held)


@register
class GuardedFieldRule(Rule):
    """Fields in a ``_GUARDED_BY`` declaration may only be touched while the
    guarding lock is held (``with self._cond:``).  ``__init__`` and methods
    whose names end in ``_locked`` (documented caller-holds-lock helpers)
    are exempt.

    Bad::   def peek(self): return self._events[-1]
    Good::  def peek(self):
                with self._cond: return self._events[-1]
    """

    rule_id = "REPRO-C301"
    name = "guarded-field"
    description = "_GUARDED_BY fields only under their `with self.<lock>` block"

    _EXEMPT = frozenset({"__init__", "__post_init__", "__del__"})

    def applies_to(self, module: LintModule) -> bool:
        return module.in_package("repro")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for class_def in ast.walk(module.tree):
            if not isinstance(class_def, ast.ClassDef):
                continue
            guarded = _guarded_by_map(class_def)
            if guarded is None:
                continue
            field_to_lock = {
                field: lock
                for lock, fields in guarded.items()
                for field in fields
            }
            walker = _LockWalker(frozenset(guarded))
            for method in class_def.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in self._EXEMPT or method.name.endswith("_locked"):
                    continue
                for node, held in walker.walk(method, frozenset()):
                    attr = _self_attr(node)
                    if attr is None:
                        continue
                    lock = field_to_lock.get(attr)
                    if lock is not None and lock not in held:
                        yield self.finding(
                            module,
                            node,
                            f"self.{attr} is declared _GUARDED_BY self.{lock} "
                            f"but is accessed outside `with self.{lock}` in "
                            f"{class_def.name}.{method.name}()",
                        )


@register
class NakedNotifyRule(Rule):
    """``Condition.notify``/``notify_all``/``wait``/``wait_for`` are only
    legal while holding that condition's lock; calling them outside the
    ``with`` raises ``RuntimeError`` at runtime — or worse, races.

    Bad::   self._cond.notify_all()
    Good::  with self._cond: self._cond.notify_all()
    """

    rule_id = "REPRO-C302"
    name = "naked-notify"
    description = "notify/notify_all/wait only inside `with self.<cond>`"

    _CONDITION_OPS = frozenset({"notify", "notify_all", "wait", "wait_for"})

    def applies_to(self, module: LintModule) -> bool:
        return module.in_package("repro")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for class_def in ast.walk(module.tree):
            if not isinstance(class_def, ast.ClassDef):
                continue
            # Any attribute used as `with self.X:` anywhere in the class is
            # treated as a lock; notify-family calls on it must be under it.
            lock_names = set()
            for node in ast.walk(class_def):
                if isinstance(node, ast.With):
                    for item in node.items:
                        lock = _self_attr(item.context_expr)
                        if lock is not None:
                            lock_names.add(lock)
            if not lock_names:
                continue
            walker = _LockWalker(frozenset(lock_names))
            for method in class_def.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name.endswith("_locked"):
                    continue
                for node, held in walker.walk(method, frozenset()):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in self._CONDITION_OPS
                    ):
                        lock = _self_attr(func.value)
                        if lock in lock_names and lock not in held:
                            yield self.finding(
                                module,
                                node,
                                f"self.{lock}.{func.attr}() outside `with "
                                f"self.{lock}` in {class_def.name}."
                                f"{method.name}() — raises or races at runtime",
                            )


@register
class UndeclaredLockRule(Rule):
    """A class that owns a lock/condition must declare what it guards.

    Constructing ``threading.Lock``/``Condition`` without a ``_GUARDED_BY``
    class attribute leaves the locking protocol in the author's head, which
    is exactly what the C3xx rules exist to prevent.

    Bad::   self._lock = threading.Lock()            # no declaration
    Good::  _GUARDED_BY = {"_lock": ("_count",)}
    """

    rule_id = "REPRO-C303"
    name = "undeclared-lock"
    description = "lock-owning classes must declare _GUARDED_BY"

    _LOCK_TYPES = frozenset(
        {
            "threading.Lock",
            "threading.RLock",
            "threading.Condition",
            "threading.Semaphore",
            "threading.BoundedSemaphore",
        }
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.in_package("repro")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for class_def in ast.walk(module.tree):
            if not isinstance(class_def, ast.ClassDef):
                continue
            if _guarded_by_map(class_def) is not None:
                continue
            for node in ast.walk(class_def):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolved_call_name(module, node)
                if resolved in self._LOCK_TYPES:
                    yield self.finding(
                        module,
                        node,
                        f"{class_def.name} constructs {resolved} but declares "
                        "no _GUARDED_BY map; declare which fields the lock "
                        "protects",
                    )


# ---------------------------------------------------------------------------
# Family O4: ordering hazards
# ---------------------------------------------------------------------------


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactically set-valued: literals, set()/frozenset(), set algebra."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


@register
class OrderingHazardRule(Rule):
    """Iteration order in the simulation core feeds dispatch decisions, RNG
    draw counts, and result assembly — so iterating a ``set`` (whose order
    hashes can perturb) is a reproducibility hazard, and ``dict.keys()`` in
    iteration position should be the dict itself so the insertion-order
    contract is explicit.  Wrap sets in ``sorted(...)`` to iterate.

    Bad::   for record_id in set(own) & set(other): ...
    Good::  for record_id in own:
                if record_id in other: ...
    """

    rule_id = "REPRO-O401"
    name = "order-hazard"
    description = "no set iteration (and no .keys() iteration) in the sim core"

    def applies_to(self, module: LintModule) -> bool:
        return module.in_package(*SIM_PACKAGES)

    def check(self, module: LintModule) -> Iterator[Finding]:
        # Pass 1: names assigned from set-valued expressions, per function.
        set_names: dict[Optional[ast.AST], set[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and _is_set_expression(node.value):
                scope = self._scope_of(node)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.setdefault(scope, set()).add(target.id)

        # Pass 2: flag iteration over set-valued expressions or such names.
        for node in ast.walk(module.tree):
            iterables: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                   ast.DictComp)):
                iterables.extend(comp.iter for comp in node.generators)
            for iterable in iterables:
                yield from self._check_iterable(module, node, iterable, set_names)

    def _scope_of(self, node: ast.AST) -> Optional[ast.AST]:
        functions = enclosing_functions(node)
        return functions[0] if functions else None

    def _check_iterable(
        self,
        module: LintModule,
        loop: ast.AST,
        iterable: ast.expr,
        set_names: dict[Optional[ast.AST], set[str]],
    ) -> Iterator[Finding]:
        if _is_set_expression(iterable):
            yield self.finding(
                module,
                iterable,
                "iterating a set: order is hash-dependent and feeds "
                "downstream draws/results; iterate a list or sorted(...)",
            )
        elif _is_keys_call(iterable):
            yield self.finding(
                module,
                iterable,
                "iterate the dict directly instead of .keys() so the "
                "insertion-order contract is explicit",
            )
        elif isinstance(iterable, ast.Name):
            scope = self._scope_of(loop)
            if iterable.id in set_names.get(scope, set()):
                yield self.finding(
                    module,
                    iterable,
                    f"`{iterable.id}` was built as a set; iterating it is "
                    "hash-order-dependent — iterate a list or sorted(...)",
                )


# ---------------------------------------------------------------------------
# Family P5: oracle parity
# ---------------------------------------------------------------------------


def _string_dict_literal(
    class_def: ast.ClassDef, attribute: str
) -> Optional[tuple[ast.AST, dict[str, str]]]:
    """A class-body ``attribute = {"name": "twin", ...}`` declaration."""
    for statement in class_def.body:
        target_name = None
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, ast.Name):
                target_name = target.id
                value = statement.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            target_name = statement.target.id
            value = statement.value
        if target_name != attribute or not isinstance(value, ast.Dict):
            continue
        mapping: dict[str, str] = {}
        for key, twin in zip(value.keys, value.values, strict=True):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(twin, ast.Constant)
                and isinstance(twin.value, str)
            ):
                return statement, {}
            mapping[key.value] = twin.value
        return statement, mapping
    return None


def _string_tuple_literal(
    class_def: ast.ClassDef, attribute: str
) -> tuple[str, ...]:
    for statement in class_def.body:
        target_name = None
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, ast.Name):
                target_name = target.id
                value = statement.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            target_name = statement.target.id
            value = statement.value
        if target_name != attribute or not isinstance(value, (ast.Tuple, ast.List)):
            continue
        return tuple(
            element.value
            for element in value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        )
    return ()


@register
class OracleParityRule(Rule):
    """Indexed fast paths must register a brute-force ``_scan`` twin.

    Classes declare ``_SCAN_TWINS = {"fast_path": "scan_twin"}`` (twin in
    the same class, or ``"OtherClass.method"`` anywhere in the linted tree).
    Every public method that touches the incremental index (``self._index``)
    must be a registered fast path or listed in ``_INDEX_LIFECYCLE``; every
    registered twin must actually exist.  The modules that own the dispatch
    fast paths are required to carry a declaration at all, so deleting the
    registry is itself a finding.

    Bad::   def placeable_count(self): return self._index.placeable_count()
            # ... with no _SCAN_TWINS entry
    Good::  _SCAN_TWINS = {"placeable_count": "placeable_count_scan"}
    """

    rule_id = "REPRO-P501"
    name = "scan-twin"
    description = "indexed fast paths must register a brute-force _scan twin"

    #: Modules that must contain at least one ``_SCAN_TWINS`` declaration.
    #: ``repro.api.engine`` is here because its process-pool executor is a
    #: fast path over the threaded oracle: deleting either a registration
    #: or a twin method is a finding.
    REQUIRED_MODULES: ClassVar[tuple[str, ...]] = (
        "repro.core.mitigator",
        "repro.core.active_index",
        "repro.api.engine",
    )

    def applies_to(self, module: LintModule) -> bool:
        return (
            module.in_package("repro.core")
            or module.in_package("repro.api")
            or module.in_package("repro.crowd")
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for class_def in ast.walk(module.tree):
            if not isinstance(class_def, ast.ClassDef):
                continue
            declaration = _string_dict_literal(class_def, "_SCAN_TWINS")
            if declaration is None:
                continue
            statement, twins = declaration
            if not twins and isinstance(statement, ast.AST):
                yield self.finding(
                    module,
                    statement,
                    f"{class_def.name}._SCAN_TWINS must be a literal dict of "
                    "str -> str (fast path -> scan twin)",
                )
                continue
            methods = {
                item.name
                for item in class_def.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            lifecycle = set(_string_tuple_literal(class_def, "_INDEX_LIFECYCLE"))
            for fast_path, twin in twins.items():
                if fast_path not in methods:
                    yield self.finding(
                        module,
                        statement,
                        f"_SCAN_TWINS registers {fast_path!r} but "
                        f"{class_def.name} defines no such method",
                    )
                if "." not in twin and twin not in methods:
                    yield self.finding(
                        module,
                        statement,
                        f"fast path {class_def.name}.{fast_path} registers "
                        f"scan twin {twin!r}, which {class_def.name} does not "
                        "define — every fast path needs its brute-force oracle",
                    )
            # Public methods touching the index must be registered or
            # explicitly lifecycle.
            for method in class_def.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name.startswith("_"):
                    continue
                if method.name in twins or method.name in lifecycle:
                    continue
                if any(twin == method.name for twin in twins.values()):
                    continue
                if self._touches_index(method):
                    yield self.finding(
                        module,
                        method,
                        f"{class_def.name}.{method.name}() reads the "
                        "incremental index but is neither a registered "
                        "_SCAN_TWINS fast path nor listed in _INDEX_LIFECYCLE",
                    )

    @staticmethod
    def _touches_index(method: ast.AST) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and node.attr == "_index":
                return True
        return False

    def finalize(self, modules: Sequence[LintModule]) -> Iterator[Finding]:
        # Collect every class -> methods over the linted tree, and every
        # declared cross-class twin reference.
        class_methods: dict[str, set[str]] = {}
        declarations: dict[str, list[tuple[LintModule, ast.AST, dict[str, str]]]] = {}
        for module in modules:
            for class_def in ast.walk(module.tree):
                if not isinstance(class_def, ast.ClassDef):
                    continue
                class_methods.setdefault(class_def.name, set()).update(
                    item.name
                    for item in class_def.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                declared = _string_dict_literal(class_def, "_SCAN_TWINS")
                if declared is not None:
                    statement, twins = declared
                    declarations.setdefault(module.name, []).append(
                        (module, statement, twins)
                    )
        # Cross-class twins must resolve (when the target class was linted).
        for entries in declarations.values():
            for module, statement, twins in entries:
                for fast_path, twin in twins.items():
                    if "." not in twin:
                        continue
                    owner, _, method = twin.rpartition(".")
                    known = class_methods.get(owner)
                    if known is not None and method not in known:
                        yield Finding(
                            rule_id=self.rule_id,
                            path=module.display_path,
                            line=getattr(statement, "lineno", 1),
                            col=getattr(statement, "col_offset", 0) + 1,
                            message=(
                                f"scan twin {twin!r} for fast path "
                                f"{fast_path!r} does not exist on {owner}"
                            ),
                        )
        # The dispatch-owning modules must keep a registry at all.
        linted_names = {module.name for module in modules}
        for required in self.REQUIRED_MODULES:
            if required in linted_names and required not in declarations:
                module = next(m for m in modules if m.name == required)
                yield Finding(
                    rule_id=self.rule_id,
                    path=module.display_path,
                    line=1,
                    col=1,
                    message=(
                        f"{required} owns indexed fast paths but declares no "
                        "_SCAN_TWINS registry; restore the oracle-parity map"
                    ),
                )
