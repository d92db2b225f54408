"""End-to-end counterexample generation tests for SPCF (paper §2, §3.5).

Every test here checks both halves of the pipeline: symbolic execution
reaches the error, and the reconstructed counterexample *re-runs
concretely to the same blame* (Theorem 1 is enforced, not assumed).
"""


from repro.core import (
    If,
    Lam,
    NAT,
    Num,
    Ref,
    app,
    check_counterexample,
    find_counterexample,
    fun,
    instantiate,
    lam,
    opq,
    pp,
    prim,
    run,
)


def assert_validated(cex):
    assert cex is not None, "no counterexample found"
    assert cex.validated is True, f"counterexample failed validation: {cex!r}"
    return cex


class TestFirstOrder:
    def test_direct_div_by_opaque(self):
        # (div 1 •) errors iff • = 0.
        program = prim("div", Num(1), opq(NAT, "n"), label="site")
        cex = assert_validated(find_counterexample(program))
        assert cex.bindings["n"] == Num(0)

    def test_quickcheck_comparison(self):
        # §5.2: f n = 1 / (100 - n); QuickCheck's default int range
        # misses n = 100, symbolic execution finds it.
        f = lam("n", NAT, prim("div", Num(1), prim("-", Num(100), Ref("n"), label="p0"),
                               label="p1"))
        program = app(f, opq(NAT, "n"))
        cex = assert_validated(find_counterexample(program))
        assert cex.bindings["n"] == Num(100)

    def test_guarded_error_needs_solver(self):
        # if (n < 5) then 1/n else 0 — error needs n = 0 which satisfies
        # the guard; the path condition must carry the inequality.
        n = opq(NAT, "n")
        program = app(
            lam(
                "n",
                NAT,
                If(
                    prim("<?", Ref("n"), Num(5), label="p2"),
                    prim("div", Num(1), Ref("n"), label="p3"),
                    Num(0),
                ),
            ),
            n,
        )
        cex = assert_validated(find_counterexample(program))
        assert cex.bindings["n"] == Num(0)

    def test_unreachable_error(self):
        # if zero?(n) then 1 else 1/n — denominator can never be zero.
        program = app(
            lam(
                "n",
                NAT,
                If(
                    prim("zero?", Ref("n"), label="p4"),
                    Num(1),
                    prim("div", Num(1), Ref("n"), label="p5"),
                ),
            ),
            opq(NAT, "n"),
        )
        assert find_counterexample(program) is None

    def test_no_opaques_no_error(self):
        program = prim("div", Num(10), Num(5), label="p6")
        assert find_counterexample(program) is None

    def test_concrete_error_trivial_counterexample(self):
        program = prim("div", Num(1), Num(0), label="crash")
        cex = assert_validated(find_counterexample(program))
        assert cex.bindings == {}

    def test_two_opaques_constrained_sum(self):
        # error iff a + b = 7 and a < b: solver must coordinate both.
        a, b = opq(NAT, "a"), opq(NAT, "b")
        body = If(
            prim("=?", prim("+", Ref("a"), Ref("b"), label="p7"), Num(7), label="p8"),
            If(
                prim("<?", Ref("a"), Ref("b"), label="p9"),
                prim("div", Num(1), Num(0), label="boom"),
                Num(0),
            ),
            Num(0),
        )
        program = app(lam("a", NAT, lam("b", NAT, body)), a, b)
        cex = assert_validated(find_counterexample(program))
        va, vb = cex.bindings["a"].value, cex.bindings["b"].value
        assert va + vb == 7 and va < vb


class TestHigherOrder:
    def test_paper_worked_example(self):
        # §2: let f g n = 1/(100 - (g n)) in (• f).
        f = lam(
            "g",
            fun(NAT, NAT),
            lam(
                "n",
                NAT,
                prim(
                    "div",
                    Num(1),
                    prim("-", Num(100), app(Ref("g"), Ref("n")), label="p10"),
                    label="div-site",
                ),
            ),
        )
        program = app(opq(fun(fun(fun(NAT, NAT), NAT, NAT), NAT), "ctx"), f)
        cex = assert_validated(find_counterexample(program))
        assert cex.err.label == "div-site"
        # The binding is a function; re-running is the real check, but the
        # pretty form should mention the magic constant 100 somewhere.
        assert "100" in pp(cex.bindings["ctx"])

    def test_unknown_function_input(self):
        # f : (nat→nat) → nat applied to unknown g; errors iff g(3) = 7.
        g = opq(fun(NAT, NAT), "g")
        f = lam(
            "g",
            fun(NAT, NAT),
            If(
                prim("=?", app(Ref("g"), Num(3)), Num(7), label="p11"),
                prim("div", Num(1), Num(0), label="bang"),
                Num(0),
            ),
        )
        cex = assert_validated(find_counterexample(app(f, g)))
        # The reconstructed g must actually map 3 to 7.
        g_concrete = cex.bindings["g"]
        probe = app(g_concrete, Num(3))
        assert run(probe).number() == 7

    def test_case_consistency_required(self):
        # errors iff g(0) != g(0) — impossible; without the memoising
        # case mapping the tool would report a spurious error here.
        g = opq(fun(NAT, NAT), "g")
        f = lam(
            "g",
            fun(NAT, NAT),
            If(
                prim("=?", app(Ref("g"), Num(0)), app(Ref("g"), Num(0)), label="p12"),
                Num(0),
                prim("div", Num(1), Num(0), label="spurious"),
            ),
        )
        assert find_counterexample(app(f, g)) is None

    def test_case_two_points(self):
        # errors iff g(0) = 1 and g(1) = 2 — needs a two-entry mapping.
        g = opq(fun(NAT, NAT), "g")
        body = If(
            prim("=?", app(Ref("g"), Num(0)), Num(1), label="p13"),
            If(
                prim("=?", app(Ref("g"), Num(1)), Num(2), label="p14"),
                prim("div", Num(1), Num(0), label="two-point"),
                Num(0),
            ),
            Num(0),
        )
        cex = assert_validated(find_counterexample(app(lam("g", fun(NAT, NAT), body), g)))
        gc = cex.bindings["g"]
        assert run(app(gc, Num(0))).number() == 1
        assert run(app(gc, Num(1))).number() == 2

    def test_delayed_exploration(self):
        # F : nat→(nat→nat); error iff (F 0) 1 = 5 — the result of the
        # unknown is itself an unknown function (AppOpq1 with fun range,
        # then application of the opaque output).
        F = opq(fun(NAT, fun(NAT, NAT)), "F")
        body = If(
            prim("=?", app(app(Ref("F"), Num(0)), Num(1)), Num(5), label="p15"),
            prim("div", Num(1), Num(0), label="deep"),
            Num(0),
        )
        program = app(lam("F", fun(NAT, fun(NAT, NAT)), body), F)
        cex = assert_validated(find_counterexample(program))
        fc = cex.bindings["F"]
        assert run(app(app(fc, Num(0)), Num(1))).number() == 5


class TestValidationMachinery:
    def test_instantiate_replaces_all(self):
        o = opq(NAT, "n")
        program = prim("+", o, o, label="p16")
        closed = instantiate(program, {"n": Num(21)})
        assert run(closed).number() == 42

    def test_instantiate_missing_binding_uses_default(self):
        o = opq(NAT, "n")
        closed = instantiate(prim("add1", o, label="p17"), {})
        assert run(closed).number() == 1

    def test_check_counterexample_rejects_wrong_model(self):
        from repro.core.counterexample import Counterexample
        from repro.core import Err
        from repro.smt import Model

        program = prim("div", Num(1), opq(NAT, "n"), label="site")
        bogus = Counterexample(
            {"n": Num(5)}, Model(), Err("site", "div")
        )
        assert not check_counterexample(program, bogus)

    def test_default_value_types(self):
        from repro.core import default_value

        assert default_value(NAT) == Num(0)
        f = default_value(fun(NAT, NAT))
        assert isinstance(f, Lam)
        assert run(app(f, Num(9))).number() == 0
