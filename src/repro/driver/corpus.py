"""The seeded benchmark corpus.

Seventy-eight small higher-order programs in the surface syntax, arranged
as safe/buggy pairs in the style of the paper's §5 evaluation: each
buggy variant seeds exactly the kind of fault the tool exists to find
(a reachable partial-primitive application or contract violation), and
each safe variant guards it so that every symbolic path is provably
error-free.

Four sections:

* the **shared subset** (32 programs) stays contract-free and
  SPCF-expressible, runs on both backends, and is the cross-check
  population for ``--backend both``;
* the **contract section** (16 programs, tag ``contracts``, backend
  ``scv`` only) exercises what only the untyped engine can express:
  flat/dependent/higher-order/data/struct/or contracts on module
  boundaries, opaque imports, and the numeric-tower ``number?`` vs
  ``real?`` distinction behind the paper's ``0+1i`` counterexamples;
* the **synthesis section** (12 programs, tags ``contracts``+``synth``,
  backend ``scv`` only) stresses demonic-context reconstruction
  (``repro.synth``): function-valued opaque imports, callbacks through
  dependent contracts, stateful modules the client drives with
  ``set!``-visible effects, multi-provide dispatch, and nested havoc —
  every buggy variant's finding must re-run concretely through its
  synthesized client;
* the **module-composition section** (6 programs, tags
  ``contracts``+``modules``, backend ``scv`` only): multi-module
  programs — contract chains across two and three module boundaries,
  and top-level expressions calling into monitored provides.  These are
  the granularity population for the persistent store
  (:mod:`repro.store`): under ``--store`` each is decomposed into
  per-module verification units, and their verdicts are pinned to be
  identical decomposed and whole (``tests/test_store.py``);
* the **string/vector section** (12 programs, tag ``extended`` plus
  ``strings``/``vectors``, backend ``scv`` only): the registry's
  string/vector primitive family, which every program sees like any
  other primitive; their seeded faults are out-of-range indices
  (``vector-ref``/``vector-set!``/``substring``) and definite tag
  violations (``string-append`` on a number).

Shared-subset discipline (see ``driver.lower``):

* programs stay inside the SPCF-expressible subset — numbers, first-class
  functions, ``if``/``let``/``cond``/``and``-style sugar, bounded
  recursion, and ``•`` unknowns;
* safe programs terminate symbolically (recursion only on concrete
  bounds) and their safety arguments are linear, so the bundled solver
  can discharge them;
* ``if`` tests always hold comparison/predicate results, keeping PCF
  truthiness (non-zero) and Racket truthiness (non-``#f``) in agreement;
* division sites are either the seeded fault or have guarded
  denominators, so the core's floor division and Racket's truncating
  ``quotient`` never disagree along executed paths.

Every program is tagged; the ``smoke`` tag marks the fast subset CI runs
on every push.
"""

from __future__ import annotations

from dataclasses import dataclass

SAFE = "safe"
BUGGY = "buggy"

_ABS = "(define (my-abs x) (if (< x 0) (- 0 x) x))\n"


@dataclass(frozen=True)
class CorpusProgram:
    """One benchmark: a source text plus its expected verdict.

    ``backends`` annotates which verification engines the program is
    meant for: the contract-free subset runs on both (and ``--backend
    both`` cross-checks their verdicts), while module/contract programs
    are expressible only by the untyped ``scv`` engine."""

    name: str
    kind: str  # SAFE or BUGGY
    source: str
    description: str
    tags: tuple[str, ...] = ()
    backends: tuple[str, ...] = ("core", "scv")


def _safe(name, source, description, *tags):
    return CorpusProgram(name, SAFE, source, description, tuple(tags))


def _buggy(name, source, description, *tags):
    return CorpusProgram(name, BUGGY, source, description, tuple(tags))


def _safe_scv(name, source, description, *tags):
    return CorpusProgram(
        name, SAFE, source, description, ("contracts", *tags), ("scv",)
    )


def _buggy_scv(name, source, description, *tags):
    return CorpusProgram(
        name, BUGGY, source, description, ("contracts", *tags), ("scv",)
    )


def _safe_ext(name, source, description, *tags):
    return CorpusProgram(
        name, SAFE, source, description, ("extended", *tags), ("scv",)
    )


def _buggy_ext(name, source, description, *tags):
    return CorpusProgram(
        name, BUGGY, source, description, ("extended", *tags), ("scv",)
    )


CORPUS: tuple[CorpusProgram, ...] = (
    # -- first-order division guards ------------------------------------
    _safe(
        "div-checked",
        "(define (checked-div n d) (if (= d 0) 0 (quotient n d)))\n"
        "(checked-div 100 •)",
        "division behind an explicit zero test",
        "smoke", "first-order",
    ),
    _buggy(
        "div-unchecked",
        "(define (risky-div n d) (quotient n d))\n"
        "(risky-div 100 •)",
        "unknown denominator reaches quotient unguarded",
        "smoke", "first-order",
    ),
    _safe(
        "abs-denom",
        _ABS + "(quotient 100 (add1 (my-abs •)))",
        "|x| + 1 is provably nonzero on both abs branches",
        "first-order",
    ),
    _buggy(
        "abs-denom-zero",
        _ABS + "(quotient 100 (my-abs •))",
        "|x| alone can still be zero",
        "first-order",
    ),
    # -- the paper's §2 worked example ----------------------------------
    _buggy(
        "intro-unknown-fn",
        "(define (f g) (quotient 100 (- 100 (g 0))))\n"
        "(f •)",
        "§2 introduction: an unknown function returning 100 at 0",
        "higher-order",
    ),
    _safe(
        "intro-unknown-fn-guarded",
        _ABS
        + "(define (f g) (quotient 100 (add1 (my-abs (g 0)))))\n"
        + "(f •)",
        "§2 example with the denominator made positive",
        "higher-order",
    ),
    # -- function composition -------------------------------------------
    _buggy(
        "compose-hole",
        "(define (compose f g) (lambda (x) (f (g x))))\n"
        "((compose (lambda (y) (quotient 100 y)) (lambda (x) (- x 5))) •)",
        "composed pipeline divides by x - 5",
        "higher-order",
    ),
    _safe(
        "compose-guarded",
        _ABS
        + "(define (compose f g) (lambda (x) (f (g x))))\n"
        + "((compose (lambda (y) (quotient 100 y))"
        " (lambda (x) (add1 (my-abs x)))) •)",
        "composed pipeline with a positive inner stage",
        "higher-order",
    ),
    # -- branch-join arithmetic ------------------------------------------
    _safe(
        "clamp-positive",
        "(define (clamp x lo hi) (if (< x lo) lo (if (< hi x) hi x)))\n"
        "(quotient 100 (clamp • 1 10))",
        "clamping into [1, 10] keeps the denominator nonzero",
        "first-order",
    ),
    _buggy(
        "clamp-zero-low",
        "(define (clamp x lo hi) (if (< x lo) lo (if (< hi x) hi x)))\n"
        "(quotient 100 (clamp • 0 10))",
        "clamping into [0, 10] admits a zero denominator",
        "first-order",
    ),
    # -- bounded recursion over an unknown function ----------------------
    _buggy(
        "sum-unknown-fn",
        "(define (sum-f f n) (if (<= n 0) 0 (+ (f n) (sum-f f (- n 1)))))\n"
        "(quotient 100 (sum-f • 3))",
        "f(3) + f(2) + f(1) can sum to zero",
        "higher-order", "recursion",
    ),
    _safe(
        "sum-unknown-fn-abs",
        _ABS
        + "(define (sum-f f n)"
        " (if (<= n 0) 0 (+ (my-abs (f n)) (sum-f f (- n 1)))))\n"
        + "(quotient 100 (add1 (sum-f • 3)))",
        "a sum of absolute values plus one stays positive",
        "higher-order", "recursion",
    ),
    # -- self-application shapes -----------------------------------------
    _buggy(
        "twice-reaches-ten",
        "(define (twice f x) (f (f x)))\n"
        "(quotient 100 (- 10 (twice • 3)))",
        "memoised unknown: f(f(3)) can equal 10",
        "higher-order",
    ),
    _safe(
        "twice-guarded",
        _ABS
        + "(define (twice f x) (f (f x)))\n"
        + "(quotient 100 (add1 (my-abs (twice • 3))))",
        "f(f(3)) wrapped in abs + 1",
        "higher-order",
    ),
    # -- binder/condition sugar ------------------------------------------
    _safe(
        "letstar-and-window",
        "(let* ([a •] [b (add1 a)])\n"
        "  (if (and (< 0 a) (< a 10)) (quotient 100 b) 0))",
        "let* and `and`: inside the window b = a + 1 > 1",
        "smoke", "sugar",
    ),
    _buggy(
        "cond-lucky-seven",
        "(let ([a •]) (cond [(= a 7) (quotient 100 (- a 7))] [else 1]))",
        "cond: the a = 7 clause divides by a - 7",
        "smoke", "sugar",
    ),
    # -- curried unknowns (nested case mappings) --------------------------
    _buggy(
        "curried-unknown",
        "(define h •)\n"
        "(quotient 100 (- 12 ((h 3) 4)))",
        "a curried unknown h with h(3)(4) = 12",
        "higher-order", "curried",
    ),
    _safe(
        "curried-unknown-guarded",
        "(define h •)\n" + _ABS + "(quotient 100 (add1 (my-abs ((h 3) 4))))",
        "curried unknown result wrapped in abs + 1",
        "higher-order", "curried",
    ),
    # -- the demonic context (havoc) --------------------------------------
    _buggy(
        "havoc-probes-lambda",
        "(define unknown •)\n"
        "(unknown (lambda (x) (quotient 100 x)))",
        "an unknown context probes the supplied lambda at 0",
        "smoke", "higher-order", "havoc",
    ),
    _safe(
        "havoc-total-lambda",
        "(define unknown •)\n"
        + _ABS
        + "(unknown (lambda (x) (quotient 100 (add1 (my-abs x)))))",
        "the probed lambda is total: |x| + 1 is never zero",
        "higher-order", "havoc",
    ),
    # -- concrete recursion feeding a constraint --------------------------
    _buggy(
        "factorial-offset",
        "(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1)))))\n"
        "(quotient 100 (- (fact 5) •))",
        "5! - x hits zero at x = 120",
        "recursion",
    ),
    _safe(
        "factorial-offset-abs",
        _ABS
        + "(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1)))))\n"
        + "(quotient 100 (add1 (my-abs (- (fact 5) •))))",
        "|5! - x| + 1 stays positive",
        "recursion",
    ),
    # -- integer remainders in the heap formula ---------------------------
    _buggy(
        "mod-denominator",
        "(quotient 100 (modulo • 3))",
        "x mod 3 is zero for any multiple of 3",
        "first-order", "euclidean",
    ),
    _safe(
        "mod-denominator-shifted",
        "(quotient 100 (add1 (modulo • 3)))",
        "Euclidean mod is nonnegative, so x mod 3 + 1 is positive",
        "first-order", "euclidean",
    ),
    # -- boolean sugar (or / not) -----------------------------------------
    _safe(
        "or-covers-line",
        "(define (covered? x) (or (< x 1) (< 0 x)))\n"
        "(if (covered? •) 3 (quotient 1 0))",
        "x < 1 or 0 < x covers every integer; the error branch is dead",
        "sugar", "boolean",
    ),
    _buggy(
        "window-inside",
        "(define (outside? x) (or (< x 0) (< 10 x)))\n"
        "(if (not (outside? •)) (quotient 1 0) 3)",
        "not/or: any x in [0, 10] reaches the error branch",
        "sugar", "boolean",
    ),
    # -- min/max selection -------------------------------------------------
    _safe(
        "max-with-one",
        "(define (max2 a b) (if (< a b) b a))\n"
        "(define lo •)\n"
        "(quotient 100 (max2 1 lo))",
        "max(1, x) is at least 1 on both branches",
        "first-order",
    ),
    _buggy(
        "min-with-one",
        "(define (min2 a b) (if (< a b) a b))\n"
        "(define lo •)\n"
        "(quotient 100 (min2 1 lo))",
        "min(1, x) can be zero",
        "first-order",
    ),
    # -- two related unknowns ---------------------------------------------
    _safe(
        "strict-gap",
        "(define a •)\n(define b •)\n"
        "(if (< a b) (quotient 100 (- b a)) 2)",
        "a < b makes the gap b - a at least 1",
        "smoke", "first-order", "relational",
    ),
    _buggy(
        "slack-gap",
        "(define a •)\n(define b •)\n"
        "(if (<= a b) (quotient 100 (- b a)) 2)",
        "a <= b admits a zero gap",
        "smoke", "first-order", "relational",
    ),
    # -- predicate chains --------------------------------------------------
    _buggy(
        "pred-chain-three",
        "(define (pred3 x) (sub1 (sub1 (sub1 x))))\n"
        "(if (zero? (pred3 •)) (quotient 1 0) 5)",
        "three sub1s reach zero exactly at x = 3",
        "smoke", "first-order",
    ),
    _safe(
        "pred-chain-guarded",
        _ABS + "(if (zero? (add1 (my-abs •))) (quotient 1 0) 5)",
        "|x| + 1 is never zero, so the error branch is dead",
        "first-order",
    ),
    # ------------------------------------------------------------------
    # Contract-bearing module benchmarks (§4–5): expressible only by the
    # untyped scv backend.  Each module faces a *demonic client* — an
    # unknown context that probes every provided value — so a buggy
    # verdict means "some well-behaved client can make this module (or
    # an unknown import) go wrong", the paper's headline question.
    # ------------------------------------------------------------------
    _buggy_scv(
        "ctc-range-shift",
        "(module m\n"
        "  (define (shift x) (- x 10))\n"
        "  (provide [shift (-> positive? positive?)]))",
        "positive? range broken: x - 10 is nonpositive for small x",
        "smoke", "flat",
    ),
    _safe_scv(
        "ctc-range-shift-up",
        "(module m\n"
        "  (define (shift x) (+ x 10))\n"
        "  (provide [shift (-> positive? positive?)]))",
        "x + 10 stays positive whenever x is",
        "smoke", "flat",
    ),
    _buggy_scv(
        "dep-range-bump",
        "(module m\n"
        "  (define (bump n) (- n 1))\n"
        "  (provide [bump (->d ([n exact-nonnegative-integer?]) (>/c n))]))",
        "dependent range: n - 1 never exceeds n",
        "dependent",
    ),
    _safe_scv(
        "dep-range-bump-up",
        "(module m\n"
        "  (define (bump n) (+ n 1))\n"
        "  (provide [bump (->d ([n exact-nonnegative-integer?]) (>/c n))]))",
        "dependent range: n + 1 always exceeds n",
        "dependent",
    ),
    _buggy_scv(
        "opaque-import-div",
        "(module m\n"
        "  (define-opaque g (-> integer? integer?))\n"
        "  (define (use n) (quotient 100 (g n)))\n"
        "  (provide [use (-> integer? integer?)]))",
        "the opaque import's integer? range admits zero denominators",
        "smoke", "opaque-module",
    ),
    _safe_scv(
        "opaque-import-div-pos",
        "(module m\n"
        "  (define-opaque g (-> integer? positive?))\n"
        "  (define (use n) (quotient 100 (g n)))\n"
        "  (provide [use (-> integer? integer?)]))",
        "strengthening g's range to positive? protects the division",
        "opaque-module",
    ),
    _buggy_scv(
        "ho-domain-apply",
        "(module m\n"
        "  (define (apply-at f) (quotient 100 (f 7)))\n"
        "  (provide [apply-at (-> (-> integer? integer?) integer?)]))",
        "a contracted callback may still return zero at 7",
        "higher-order-ctc",
    ),
    _safe_scv(
        "ho-domain-apply-guarded",
        "(module m\n"
        "  (define (my-abs x) (if (< x 0) (- 0 x) x))\n"
        "  (define (apply-at f) (quotient 100 (add1 (my-abs (f 7)))))\n"
        "  (provide [apply-at (-> (-> integer? integer?) integer?)]))",
        "|f(7)| + 1 is positive for every contracted callback",
        "higher-order-ctc",
    ),
    _buggy_scv(
        "tower-number-compare",
        "(module m\n"
        "  (define (smaller a b) (if (< a b) a b))\n"
        "  (provide [smaller (-> number? number? number?)]))",
        "§5.2-style: number? admits 0+1i, which < rejects",
        "tower",
    ),
    _safe_scv(
        "tower-real-compare",
        "(module m\n"
        "  (define (smaller a b) (if (< a b) a b))\n"
        "  (provide [smaller (-> real? real? real?)]))",
        "tightening the domains to real? makes < total here",
        "tower",
    ),
    _buggy_scv(
        "listof-head-div",
        "(module m\n"
        "  (define (avg-head xs) (quotient 100 (car xs)))\n"
        "  (provide [avg-head\n"
        "            (-> (cons/c integer? (listof integer?)) integer?)]))",
        "the contracted head may be zero",
        "data-ctc",
    ),
    _safe_scv(
        "listof-head-div-guarded",
        "(module m\n"
        "  (define (avg-head xs)\n"
        "    (if (zero? (car xs)) 1 (quotient 100 (car xs))))\n"
        "  (provide [avg-head (-> (cons/c integer? any/c) integer?)]))",
        "the zero head is tested away; the lazy any/c tail keeps the "
        "demonic list walk finite (listof on a safe module diverges "
        "without widening, §4.5)",
        "data-ctc",
    ),
    _buggy_scv(
        "struct-posn-invx",
        "(module geom\n"
        "  (struct posn (x y))\n"
        "  (define (inv-x p) (quotient 100 (posn-x p)))\n"
        "  (provide [inv-x (-> (struct/c posn integer? integer?) integer?)]))",
        "struct/c only pins field types; x may still be zero",
        "struct-ctc",
    ),
    _safe_scv(
        "struct-posn-invx-guarded",
        "(module geom\n"
        "  (struct posn (x y))\n"
        "  (define (inv-x p)\n"
        "    (if (zero? (posn-x p)) 1 (quotient 100 (posn-x p))))\n"
        "  (provide [inv-x (-> (struct/c posn integer? integer?) integer?)]))",
        "the zero field is tested away before dividing",
        "struct-ctc",
    ),
    _buggy_scv(
        "orc-scale",
        "(module m\n"
        "  (define (scale v) (if (boolean? v) 0 (quotient 100 v)))\n"
        "  (provide [scale (-> (or/c boolean? integer?) integer?)]))",
        "the integer disjunct of or/c includes zero",
        "or-ctc",
    ),
    _safe_scv(
        "orc-scale-shifted",
        "(module m\n"
        "  (define (scale v) (if (boolean? v) 0 (add1 v)))\n"
        "  (provide [scale (-> (or/c boolean? integer?) integer?)]))",
        "the non-boolean disjunct is total arithmetic",
        "or-ctc",
    ),
    # ------------------------------------------------------------------
    # Demonic-context synthesis scenarios (tag `synth`): module programs
    # whose counterexamples exercise `repro.synth` — the blame only
    # reproduces when the *client itself* is reconstructed concretely
    # (function-valued opaque imports rendered as dispatch lambdas,
    # callbacks fed through dependent contracts, stateful modules driven
    # by the client, multi-provide dispatch, nested havoc).
    # ------------------------------------------------------------------
    _buggy_scv(
        "fn-opaque-constant",
        "(module m\n"
        "  (define-opaque f (-> integer? integer?))\n"
        "  (define (probe) (quotient 100 (- 10 (f 5))))\n"
        "  (provide [probe (-> integer?)]))",
        "a function-valued opaque import with f(5) = 10 zeroes the "
        "denominator; the synthesized client pins f as a dispatch lambda",
        "smoke", "synth", "opaque-module",
    ),
    _safe_scv(
        "fn-opaque-constant-guarded",
        "(module m\n"
        "  (define-opaque f (-> integer? integer?))\n"
        "  (define (my-abs x) (if (< x 0) (- 0 x) x))\n"
        "  (define (probe) (quotient 100 (add1 (my-abs (- 10 (f 5))))))\n"
        "  (provide [probe (-> integer?)]))",
        "|10 - f(5)| + 1 is positive for every integer-valued f",
        "synth", "opaque-module",
    ),
    _buggy_scv(
        "callback-diff",
        "(module m\n"
        "  (define (diff f) (- (f 0) (f 0)))\n"
        "  (provide [diff (-> (-> integer? integer?) positive?)]))",
        "functional consistency: f(0) - f(0) is zero, breaking the "
        "positive? range for every synthesized callback",
        "synth", "higher-order-ctc",
    ),
    _safe_scv(
        "callback-diff-abs",
        "(module m\n"
        "  (define (my-abs x) (if (< x 0) (- 0 x) x))\n"
        "  (define (diff f) (add1 (my-abs (- (f 0) (f 0)))))\n"
        "  (provide [diff (-> (-> integer? integer?) positive?)]))",
        "|f(0) - f(0)| + 1 is positive whatever the callback returns",
        "synth", "higher-order-ctc",
    ),
    _buggy_scv(
        "dep-ctc-callback",
        "(module m\n"
        "  (define (between lo) (lambda (x) (quotient 100 (- x lo))))\n"
        "  (provide [between (->d ([lo integer?])\n"
        "                         (-> (and/c integer? (>=/c lo)) integer?))]))",
        "nested havoc: the client calls (between lo) and then applies "
        "the returned function at x = lo, where x - lo is zero",
        "synth", "dependent", "nested-havoc",
    ),
    _safe_scv(
        "dep-ctc-callback-strict",
        "(module m\n"
        "  (define (between lo) (lambda (x) (quotient 100 (- x lo))))\n"
        "  (provide [between (->d ([lo integer?])\n"
        "                         (-> (and/c integer? (>/c lo)) integer?))]))",
        "strictly above lo, x - lo is at least one",
        "synth", "dependent", "nested-havoc",
    ),
    _buggy_scv(
        "stateful-counter",
        "(module m\n"
        "  (define calls 0)\n"
        "  (define (tick) (begin (set! calls (add1 calls))\n"
        "                        (quotient 100 (- 1 calls))))\n"
        "  (provide [tick (-> integer?)]))",
        "module state: the client's very first tick sets calls to 1 and "
        "divides by 1 - calls",
        "smoke", "synth", "state",
    ),
    _safe_scv(
        "stateful-counter-guarded",
        "(module m\n"
        "  (define calls 0)\n"
        "  (define (tick) (begin (set! calls (add1 calls))\n"
        "                        (quotient 100 (add1 calls))))\n"
        "  (provide [tick (-> integer?)]))",
        "calls + 1 is at least 2 after the increment",
        "synth", "state",
    ),
    _buggy_scv(
        "two-provides",
        "(module m\n"
        "  (define (fine x) (+ x 1))\n"
        "  (define (risky x) (quotient 100 x))\n"
        "  (provide [fine (-> integer? integer?)]\n"
        "           [risky (-> integer? integer?)]))",
        "client dispatch over two provides: only probing risky at 0 "
        "finds the fault",
        "synth", "multi-provide",
    ),
    _safe_scv(
        "two-provides-guarded",
        "(module m\n"
        "  (define (fine x) (+ x 1))\n"
        "  (define (risky x) (if (zero? x) 1 (quotient 100 x)))\n"
        "  (provide [fine (-> integer? integer?)]\n"
        "           [risky (-> integer? integer?)]))",
        "both provides are total on integers",
        "synth", "multi-provide",
    ),
    _buggy_scv(
        "ho-opaque-twice",
        "(module m\n"
        "  (define-opaque g (-> integer? integer?))\n"
        "  (define (run) (quotient 100 (g (g 3))))\n"
        "  (provide [run (-> integer?)]))",
        "nested applications of an opaque function: g(3) = a, g(a) = 0 "
        "synthesizes a two-entry dispatch lambda",
        "synth", "opaque-module",
    ),
    _safe_scv(
        "ho-opaque-twice-guarded",
        "(module m\n"
        "  (define-opaque g (-> integer? integer?))\n"
        "  (define (my-abs x) (if (< x 0) (- 0 x) x))\n"
        "  (define (run) (quotient 100 (add1 (my-abs (g (g 3))))))\n"
        "  (provide [run (-> integer?)]))",
        "|g(g(3))| + 1 is positive for every integer-valued g",
        "synth", "opaque-module",
    ),
    # ------------------------------------------------------------------
    # Module composition (scv only; tags contracts+modules).  Multi-
    # module programs: the persistent store (repro.store) decomposes
    # these into per-module verification units, so they pin both the
    # decomposition's verdict-equivalence and its cache granularity
    # (editing one module re-verifies only the units that can reach it).
    # ------------------------------------------------------------------
    _buggy_scv(
        "modules-chain-div",
        "(module lib\n"
        "  (define (half x) (quotient x 2))\n"
        "  (provide [half (-> integer? integer?)]))\n"
        "(module app\n"
        "  (define (use n) (quotient 100 (half n)))\n"
        "  (provide [use (-> integer? integer?)]))",
        "two boundaries: half may return 0, app divides by it",
        "smoke", "modules",
    ),
    _safe_scv(
        "modules-chain-div-guarded",
        "(module lib\n"
        "  (define (my-abs x) (if (< x 0) (- 0 x) x))\n"
        "  (define (bump x) (+ (my-abs x) 1))\n"
        "  (provide [bump (-> integer? positive?)]))\n"
        "(module app\n"
        "  (define (use n) (quotient 100 (bump n)))\n"
        "  (provide [use (-> integer? integer?)]))",
        "bump's positive? range protects app's division",
        "smoke", "modules",
    ),
    _buggy_scv(
        "modules-main-prim-div",
        "(module lib\n"
        "  (define (f x) (- x x))\n"
        "  (provide [f (-> integer? integer?)]))\n"
        "(quotient 100 (f 5))",
        "the top-level expression divides by f(5) = 0",
        "modules",
    ),
    _safe_scv(
        "modules-main-prim-div-guarded",
        "(module lib\n"
        "  (define (my-abs x) (if (< x 0) (- 0 x) x))\n"
        "  (define (f x) (+ (my-abs (- x x)) 1))\n"
        "  (provide [f (-> integer? integer?)]))\n"
        "(quotient 100 (f 5))",
        "f always returns 1, so the top-level division is total",
        "modules",
    ),
    _buggy_scv(
        "modules-triple-pipeline",
        "(module m1\n"
        "  (define (dec x) (- x 1))\n"
        "  (provide [dec (-> integer? integer?)]))\n"
        "(module m2\n"
        "  (define (prep n) (dec (dec n)))\n"
        "  (provide [prep (-> integer? integer?)]))\n"
        "(module m3\n"
        "  (define (run n) (quotient 100 (prep n)))\n"
        "  (provide [run (-> integer? integer?)]))",
        "three boundaries: prep(2) = 0 reaches m3's division",
        "modules",
    ),
    _safe_scv(
        "modules-triple-pipeline-guarded",
        "(module m1\n"
        "  (define (dec x) (- x 1))\n"
        "  (provide [dec (-> integer? integer?)]))\n"
        "(module m2\n"
        "  (define (prep n) (dec (dec n)))\n"
        "  (provide [prep (-> integer? integer?)]))\n"
        "(module m3\n"
        "  (define (my-abs x) (if (< x 0) (- 0 x) x))\n"
        "  (define (run n) (quotient 100 (+ (my-abs (prep n)) 1)))\n"
        "  (provide [run (-> integer? integer?)]))",
        "|prep(n)| + 1 keeps m3's denominator positive",
        "modules",
    ),
    # ------------------------------------------------------------------
    # The string/vector primitive family (scv only — the typed core's
    # SPCF slice has no string or vector sorts).  The seeded faults are
    # the family's partial-primitive preconditions: out-of-range indices
    # and definite tag violations.
    # ------------------------------------------------------------------
    _buggy_ext(
        "vector-ref-unchecked",
        "(define (pick i) (vector-ref (vector 1 2 3) i))\n"
        "(pick •)",
        "an unknown index reaches vector-ref unguarded",
        "vectors", "smoke",
    ),
    _safe_ext(
        "vector-ref-clamped",
        "(define (clamp i) (if (< i 0) 0 (if (< i 3) i 0)))\n"
        "(define (pick i) (vector-ref (vector 1 2 3) (clamp i)))\n"
        "(pick •)",
        "clamping proves the index lies in [0, 2] on every path",
        "vectors", "smoke",
    ),
    _buggy_ext(
        "vector-set-unchecked",
        "(define (poke i) (vector-set! (vector 0 0) i 7))\n"
        "(poke •)",
        "an unknown index reaches vector-set! unguarded",
        "vectors",
    ),
    _safe_ext(
        "vector-last",
        "(define (final v) (vector-ref v (- (vector-length v) 1)))\n"
        "(final (vector 4 5 6))",
        "length - 1 of a nonempty vector is always in range",
        "vectors",
    ),
    _buggy_ext(
        "vector-length-off-by-one",
        "(define (beyond v) (vector-ref v (vector-length v)))\n"
        "(beyond (vector 4 5 6))",
        "indexing at the length is one past the last slot",
        "vectors",
    ),
    _safe_ext(
        "vector-opaque-peek",
        "(define (peek v) (vector-ref v 1))\n"
        "(peek •)",
        "an opaque vector's element is a fresh unknown, never an error",
        "vectors",
    ),
    _buggy_ext(
        "substring-window",
        "(define (cut i) (substring \"window\" i (add1 i)))\n"
        "(cut •)",
        "the one-character window can start outside the string",
        "strings", "smoke",
    ),
    _safe_ext(
        "substring-window-guarded",
        "(define (cut i)\n"
        "  (if (< i 0) \"\" (if (< i 5) (substring \"window\" i (add1 i)) \"\")))\n"
        "(cut •)",
        "0 <= i < 5 keeps both window endpoints inside the string",
        "strings", "smoke",
    ),
    _buggy_ext(
        "substring-take",
        "(define (take n) (substring \"hi\" 0 n))\n"
        "(take •)",
        "an unknown prefix length can exceed the string (or be negative)",
        "strings",
    ),
    _safe_ext(
        "string-measure",
        "(define (measure s) (add1 (string-length s)))\n"
        "(measure •)",
        "string-length of any string is an integer; add1 total on it",
        "strings",
    ),
    _buggy_ext(
        "string-append-number",
        "(define (label n) (string-append \"n = \" n))\n"
        "(label (add1 •))",
        "add1 makes the argument definitely a number, never a string",
        "strings",
    ),
    _safe_ext(
        "string-compare-branch",
        "(define (greet s) (if (string=? s \"hi\") \"hello\" \"bye\"))\n"
        "(greet •)",
        "string=? on an unknown string answers an unknown boolean, safely",
        "strings",
    ),
)


_BY_NAME = {p.name: p for p in CORPUS}
assert len(_BY_NAME) == len(CORPUS), "corpus names must be unique"


def get_program(name: str) -> CorpusProgram:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no corpus program named {name!r}") from None


def corpus_names(
    *,
    kind: str | None = None,
    tag: str | None = None,
    backend: str | None = None,
) -> list[str]:
    """Names of corpus programs, optionally filtered by kind, tag, or
    supporting backend."""
    return [
        p.name
        for p in CORPUS
        if (kind is None or p.kind == kind)
        and (tag is None or tag in p.tags)
        and (backend is None or backend in p.backends)
    ]
