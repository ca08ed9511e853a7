"""Parametric checks on benchmark generators (widths, sizes, variants)."""

import random

import pytest

from repro.designs import (
    build_clz,
    build_cordic,
    build_gfmul,
    build_rs,
    build_xorr,
    reference_clz,
    reference_cordic,
    reference_gfmul,
    reference_xorr,
)
from repro.ir.validate import validate
from repro.sim import FunctionalSimulator


class TestCLZWidths:
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_matches_reference(self, width, rng):
        g = build_clz(width)
        validate(g)
        sim = FunctionalSimulator(g)
        for x in (0, 1, (1 << width) - 1, 1 << (width - 1)):
            assert sim.step({"x": x})["clz"] == reference_clz(x, width)
        for _ in range(20):
            x = rng.randrange(1 << width)
            assert sim.step({"x": x})["clz"] == reference_clz(x, width)


class TestXORRVariants:
    @pytest.mark.parametrize("elements,balanced", [(4, True), (7, True),
                                                   (16, False), (33, True)])
    def test_matches_reference(self, elements, balanced, rng):
        g = build_xorr(elements=elements, width=8, balanced=balanced)
        validate(g)
        sim = FunctionalSimulator(g)
        vals = [rng.randrange(256) for _ in range(elements)]
        out = sim.step({f"x{i}": v for i, v in enumerate(vals)})["xorr"]
        assert out == reference_xorr(vals, width=8)

    def test_balanced_has_log_depth(self):
        gb = build_xorr(elements=32, width=8, balanced=True)
        gc = build_xorr(elements=32, width=8, balanced=False)

        def depth(g):
            d = {}
            for nid in g.topological_order():
                node = g.node(nid)
                d[nid] = 1 + max((d[o.source] for o in node.operands
                                  if o.distance == 0), default=0)
            return max(d.values())

        assert depth(gb) < depth(gc)

    def test_too_few_elements_rejected(self):
        with pytest.raises(ValueError):
            build_xorr(elements=1)


class TestGFMULVariants:
    @pytest.mark.parametrize("poly", [0x1B, 0x1D])
    def test_polynomial_variants(self, poly, rng):
        g = build_gfmul(poly=poly)
        sim = FunctionalSimulator(g)
        for _ in range(40):
            a, m = rng.randrange(256), rng.randrange(256)
            assert sim.step({"a": a, "b": m})["p"] == \
                reference_gfmul(a, m, poly=poly)

    def test_partial_steps(self, rng):
        # 4 unrolled steps only use the low multiplier nibble
        g = build_gfmul(steps=4)
        sim = FunctionalSimulator(g)
        for _ in range(30):
            a, m = rng.randrange(256), rng.randrange(16)
            assert sim.step({"a": a, "b": m})["p"] == reference_gfmul(a, m)


class TestCORDICIterations:
    @pytest.mark.parametrize("iterations", [1, 3, 8])
    def test_matches_reference(self, iterations, rng):
        g = build_cordic(iterations=iterations)
        sim = FunctionalSimulator(g)
        for _ in range(20):
            x, y, z = (rng.randrange(1 << 16) for _ in range(3))
            out = sim.step({"x": x, "y": y, "z": z})
            ref = reference_cordic(x, y, z, iterations=iterations)
            assert (out["x_out"], out["y_out"], out["z_out"]) == ref


class TestRSVariants:
    @pytest.mark.parametrize("syndromes", [1, 2, 4])
    def test_builds_and_validates(self, syndromes):
        g = build_rs(syndromes=syndromes)
        validate(g)
        out_names = {n.name for n in g.outputs}
        assert {f"syn{j}" for j in range(1, syndromes + 1)} <= out_names
