"""The primitive registry: one declaration per primitive, four consumers.

The paper's δ is a single specification, but the system needs it in four
shapes: the concrete interpreter (``base_primitives``), the typed
symbolic machine (``core.delta``), the untyped symbolic machine
(``scv.delta``) and the bytecode executor's inline fast path
(``compile.executor``).  Each :class:`PrimSpec` carries everything all
four need:

* ``name`` / ``aliases`` — the surface names bound in the global frame
  (declaration order is the global-heap allocation order);
* ``arity`` — fixed or variadic argument count; ``scv.delta`` checks
  it before any untyped rule runs;
* ``sig`` — the per-argument *tag signature*: which tag sets each
  argument must fall into, the blame description when it does not, and
  (for generic scalar primitives) the result tag set.  ``scv.delta``
  generates the tag-split/blame-branch/narrowing recipe from this,
  including the ``assume_well_typed`` suppression path;
* ``refine`` — the *integer-refinement template* (arith / offset /
  divlike / slash / compare / swap / sign) interpreted by both
  ``core.delta`` (via ``core_op`` + the template's ``py`` integer
  semantics) and ``scv.delta`` (heap-term ``PEq`` refinements);
* ``synth`` — a *synthesis rule*: the primitive expands into checking
  code over simpler primitives (``OEval``), the §4.3 move;
* ``rule`` — a fully custom untyped δ-rule for shape-touching
  primitives (pairs, boxes, vectors, contract constructors);
* ``concrete`` — the one concrete implementation every engine delegates
  to.

``@prim(...)`` registers the decorated concrete implementation;
``alias(...)`` registers an extra surface name sharing a previous
declaration's semantics.  Declarations live in
``repro.prims.declarations``; this module is dependency-free so every
layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

ANY_TAGS = None  # sig placeholder: the argument may be any value

Want = Optional[object]  # frozenset[str] | tuple[frozenset[str], ...] | None


@dataclass(frozen=True)
class Arity:
    """Accepted argument counts: ``max`` None means variadic."""

    min: int
    max: Optional[int]

    def blame(self, n: int) -> Optional[str]:
        """The arity-violation description for ``n`` arguments, or None
        when ``n`` is fine."""
        if n < self.min and self.max is None:
            s = "" if self.min == 1 else "s"
            return f"needs at least {self.min} argument{s}"
        if self.max is not None and not (self.min <= n <= self.max):
            if self.min == self.max:
                s = "" if self.min == 1 else "s"
                return f"expected {self.min} argument{s}, got {n}"
            return f"expected {self.min} to {self.max} arguments, got {n}"
        return None


def exactly(n: int) -> Arity:
    return Arity(n, n)


def at_least(n: int) -> Arity:
    return Arity(n, None)


def between(lo: int, hi: int) -> Arity:
    return Arity(lo, hi)


@dataclass(frozen=True)
class TagSig:
    """Per-argument tag signature.

    ``want`` is a single tag set applied to every argument, a tuple of
    per-argument tag sets (the last entry repeats for variadic tails),
    or :data:`ANY_TAGS` when the primitive accepts anything.  ``desc``
    mirrors the same shape and is the blame description used when an
    argument definitely falls outside its set.  ``result``, when given,
    is the tag set of the (otherwise unconstrained) opaque result — it
    makes a declaration usable by the *generic* untyped handler with no
    hand-written rule at all.
    """

    want: Want = ANY_TAGS
    desc: object = ""
    result: Optional[frozenset] = None


@dataclass(frozen=True)
class Refinement:
    """Integer-refinement template shared by the typed and untyped δ.

    ``kind`` selects the interpreter: ``arith`` (n-ary fold into one
    heap term), ``offset`` (``±1``), ``divlike`` (zero-divisor branch,
    Euclidean ``div``/``mod`` term when ``constrain``), ``slash``
    (zero check only, result leaves the integer fragment), ``compare``
    (three-way proof branch), ``swap`` (binary comparison normalised by
    operand swap to ``op``), ``sign`` (total sign predicate over
    ``pred``).  ``py`` is the *typed core's* integer semantics — for
    ``divlike`` deliberately Euclidean, diverging from Racket's
    truncating ``quotient`` exactly as the module docstrings document.
    """

    kind: str
    op: str = ""
    py: Optional[Callable] = None
    constrain: bool = True
    pred: Optional[Callable] = None


@dataclass(frozen=True)
class PrimSpec:
    name: str
    concrete: Callable
    arity: Arity
    sig: TagSig
    family: str = "misc"
    refine: Optional[Refinement] = None
    synth: Optional[Callable] = None
    rule: Optional[Callable] = None
    pred_tags: Optional[frozenset] = None
    materialize: Optional[str] = None
    core_op: Optional[str] = None
    # Does the synth/sig handler delegate to the concrete implementation
    # when every argument reifies?  Higher-order synthesis rules (map,
    # filter, ...) must not — their delegation would need an apply
    # callback the δ context deliberately lacks.
    delegate_concrete: bool = True
    alias_of: Optional[str] = None
    aliases: tuple[str, ...] = field(default=(), compare=False)


#: name -> PrimSpec, in declaration order.  Iteration order is the
#: global-frame allocation order (see ``scv.engine.build_base_heap``).
REGISTRY: dict[str, PrimSpec] = {}


def prim(name: str, *, arity: Arity, sig: TagSig, family: str = "misc",
         refine: Optional[Refinement] = None,
         synth: Optional[Callable] = None,
         rule: Optional[Callable] = None,
         pred_tags: Optional[frozenset] = None,
         materialize: Optional[str] = None,
         core_op: Optional[str] = None,
         delegate_concrete: bool = True) -> Callable:
    """Register the decorated callable as primitive ``name``."""

    def register(fn: Callable) -> Callable:
        if name in REGISTRY:
            raise ValueError(f"duplicate primitive declaration {name!r}")
        REGISTRY[name] = PrimSpec(
            name=name, concrete=fn, arity=arity, sig=sig, family=family,
            refine=refine, synth=synth, rule=rule, pred_tags=pred_tags,
            materialize=materialize, core_op=core_op,
            delegate_concrete=delegate_concrete,
        )
        return fn

    return register


def alias(name: str, of: str) -> None:
    """Register ``name`` as an alias sharing ``of``'s declaration.  The
    alias is a full registry row (it gets its own global binding, in
    declaration order) whose semantic fields are cloned; untyped blame
    messages still use the *invoked* name."""
    target = REGISTRY[of]
    if name in REGISTRY:
        raise ValueError(f"duplicate primitive declaration {name!r}")
    REGISTRY[name] = replace(target, name=name, core_op=None,
                             alias_of=of)
    REGISTRY[of] = replace(target, aliases=target.aliases + (name,))


def all_specs() -> list[PrimSpec]:
    return list(REGISTRY.values())


def base_primitives() -> dict[str, Callable]:
    """All primitives as ``name -> fn(args, ctx)``, in declaration
    order.  ``ctx`` provides ``apply(fn, args)`` for higher-order
    primitives and ``label`` for blame."""
    return {name: spec.concrete for name, spec in REGISTRY.items()}
