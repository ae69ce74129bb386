"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload turns a seeded random
stream into cycles of operations.  A cycle holds every slot of the
workload's size mix (a slot listed twice weighs twice), in an order drawn
from the stream, so the mix of a run does not depend on the seed or on
where the run stops.

An operation carries its inputs, a call into the library's public
functions, a check of the output, and the canonical text of the output
for the run's digest.  The library is reached through ``self.pc`` at call
time, so spans installed on the module namespaces see every call.

Reference values are derived in set-up independently of the code path an
operation exercises: frame potentials come from orbit counts (Burnside),
orbit counts from the theory for single vectors, and both must agree with
the README's sequences and with the equality restricted O(2n) = Sp(2n-2).
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import checks

# README: restricted O(2n) potentials, equal to the Sp(2n-2) ones, t = 1..4
README_SEQUENCES = {4: (1, 2, 5, 15), 6: (1, 2, 6, 29)}

# Orbits of O(8) on pairs of labels, len(orbit_decomposition(8, 2,
# "orthogonal")).  Enumerating them takes seconds, too long for a set-up
# that runs several times; the benchmark's tests recompute it.
O8_PAIR_ORBITS = 24


@dataclass
class Op:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    canon: Callable[[Any], str]
    # what the class's pooled check needs from a passing output; the rest
    # is dropped, so memory does not grow with the number of operations
    keep: Optional[Callable[[Any], Any]] = None


def group_order(kind: str, dim: int) -> int:
    """|O(dim)| or |Sp(dim)| from the product formulas."""
    if kind == "orthogonal":
        return math.prod((1 << (k - 1)) - (k & 1) for k in range(2, dim + 1))
    n = dim // 2
    return (1 << (n * n)) * math.prod((1 << (2 * i)) - 1 for i in range(1, n + 1))


class Workload:
    name = ""
    # cycles replayed by the traced run; fixed, so its counts compare across commits
    trace_cycles = 1
    SLOTS: tuple = ()

    def __init__(self, pc) -> None:
        self.pc = pc
        self.setup_errors: list[str] = []

    def setup(self) -> None:
        """Reference values and warm-up; disagreements go to setup_errors."""

    def cycle(self, rng) -> list[Op]:
        slots = list(self.SLOTS)
        rng.shuffle(slots)
        return [self.make_op(slot, rng) for slot in slots]

    def make_op(self, slot, rng) -> Op:
        raise NotImplementedError

    def pooled_check(self, cls: str, kept: list) -> Optional[str]:
        """Check over what Op.keep retained of a class's passing outputs."""
        return None

    def _burnside(self, group: str, dim: int, space: str, t: int) -> int:
        """F_t as the number of orbits on (t-1)-tuples."""
        if t == 1:
            return 1
        return len(self.pc.design.orbit_decomposition(dim, t - 1, group, space))

    def _agree(self, what: str, *values) -> None:
        if len(set(values)) != 1:
            self.setup_errors.append(f"{what}: derivations disagree {values}")


def _report_fields(rep, kind, dim, t, mode, restricted) -> Optional[str]:
    got = (rep.ensemble, rep.dim, rep.t, rep.mode, rep.restricted)
    want = (kind, dim, t, mode, restricted)
    return None if got == want else f"report fields {got}, want {want}"


# ---------------------------------------------------------------------------


class McFrame(Workload):
    """Monte Carlo frame potentials at a fixed per-query sample count."""

    name = "mc_frame"
    trace_cycles = 20
    SAMPLES = 64
    SLOTS = tuple(
        (kind, dim, restricted, t)
        for kind, dim, restricted in (
            ("orthogonal", 6, True),
            ("orthogonal", 6, False),
            ("orthogonal", 8, True),
            ("orthogonal", 8, False),
            ("symplectic", 4, False),
            ("symplectic", 6, False),
        )
        for t in (2, 3)
    ) + (("orthogonal", 6, True, 4),)
    Z_BOUND = 5.0

    def setup(self) -> None:
        b = self._burnside
        ref = {}
        for t in (2, 3, 4):
            o6r, sp4 = b("orthogonal", 6, "even_quotient", t), b("symplectic", 4, "full", t)
            self._agree(f"restricted O(6) t={t}", o6r, sp4, README_SEQUENCES[6][t - 1])
            ref[("orthogonal", 6, True, t)] = o6r
            ref[("symplectic", 4, False, t)] = sp4
        for t in (2, 3):
            o8r, sp6 = b("orthogonal", 8, "even_quotient", t), b("symplectic", 6, "full", t)
            self._agree(f"restricted O(8) t={t}", o8r, sp6)
            ref[("orthogonal", 8, True, t)] = o8r
            ref[("symplectic", 6, False, t)] = sp6
            ref[("orthogonal", 6, False, t)] = b("orthogonal", 6, "full", t)
        ref[("orthogonal", 8, False, 2)] = b("orthogonal", 8, "full", 2)
        ref[("orthogonal", 8, False, 3)] = O8_PAIR_ORBITS
        self.ref = {repr(k): v for k, v in ref.items()}
        self.pc.design.frame_potential("symplectic", 2, 2, mode="monte_carlo", seed=0, samples=2)

    def make_op(self, slot, rng) -> Op:
        kind, dim, restricted, t = slot
        seed = rng.getrandbits(32)
        n = self.SAMPLES

        def run():
            design = self.pc.design
            if restricted:
                return design.parity_frame_potential(dim, t, mode="monte_carlo", seed=seed, samples=n)
            return design.frame_potential(kind, dim, t, mode="monte_carlo", seed=seed, samples=n)

        def check(rep):
            bad = _report_fields(rep, kind, dim, t, "monte_carlo", restricted)
            if bad:
                return bad
            if rep.samples != n or rep.seed != seed:
                return f"samples/seed {rep.samples}/{rep.seed}, want {n}/{seed}"
            est, se = rep.estimate, rep.std_error
            if not (math.isfinite(est) and math.isfinite(se) and se >= 0):
                return f"estimate {est!r} with error {se!r}"
            # each summand is a positive integer at most the label count ** (t-1)
            if not 1 <= est <= 2 ** (dim * (t - 1)):
                return f"estimate {est!r} out of range"
            total = est * n
            if abs(total - round(total)) > 1e-9 * total:
                return f"estimate {est!r} is not a mean of {n} integers"
            return None

        return Op(
            repr(slot),
            run,
            check,
            lambda rep: f"{seed} {rep.estimate!r} {rep.std_error!r}",
            lambda rep: (rep.estimate, rep.std_error),
        )

    def pooled_check(self, cls, kept):
        k = len(kept)
        mean = sum(est for est, _ in kept) / k
        sigma = math.sqrt(sum(se**2 for _, se in kept)) / k
        ref = self.ref[cls]
        if abs(mean - ref) > self.Z_BOUND * sigma:
            return f"{cls}: pooled estimate {mean:.4f} +- {sigma:.4f} over {k} queries, exact {ref}"
        return None


# ---------------------------------------------------------------------------


class ExactDesign(Workload):
    """Exact potentials by enumeration and exact orbit decompositions."""

    name = "exact_design"
    trace_cycles = 1
    POTENTIALS = (
        [("orthogonal", 4, True, t) for t in range(1, 5)]
        + [("orthogonal", 6, True, t) for t in range(1, 5)]
        + [("symplectic", 2, False, t) for t in range(1, 5)]
        + [("symplectic", 4, False, t) for t in range(1, 5)]
        + [("orthogonal", 6, False, t) for t in (2, 3)]
    )
    # Sp(4) on pairs twice: the median then falls between two slots of one kind
    ORBITS = (
        [("orthogonal", d, s, k) for d in (4, 6) for s in ("full", "even_quotient") for k in (1, 2)]
        + [("symplectic", 4, "full", k) for k in (1, 2, 2, 3)]
        + [("symplectic", d, "full", 1) for d in (6, 8)]
    )
    SLOTS = tuple(("potential",) + p for p in POTENTIALS) + tuple(("orbits",) + o for o in ORBITS)

    def setup(self) -> None:
        b = self._burnside
        ref = {}
        for t in range(1, 5):
            for dim in (4, 6):
                o = b("orthogonal", dim, "even_quotient", t)
                sp = b("symplectic", dim - 2, "full", t)
                self._agree(f"restricted O({dim}) t={t}", o, sp, README_SEQUENCES[dim][t - 1])
                ref[("orthogonal", dim, "even_quotient", t)] = o
                ref[("symplectic", dim - 2, "full", t)] = sp
        for dim in (4, 6):
            for t in (2, 3):
                ref[("orthogonal", dim, "full", t)] = b("orthogonal", dim, "full", t)
        # Sp(2n) is transitive on the nonzero labels
        ref[("symplectic", 6, "full", 2)] = ref[("symplectic", 8, "full", 2)] = 2
        self.ref = ref
        self.pc.design.parity_frame_potential(4, 1)

    def make_op(self, slot, rng) -> Op:
        if slot[0] == "potential":
            return self._potential_op(*slot[1:])
        return self._orbit_op(*slot[1:])

    def _potential_op(self, kind, dim, restricted, t) -> Op:
        want = self.ref[(kind, dim, "even_quotient" if restricted else "full", t)]

        def run():
            if restricted:
                return self.pc.design.parity_frame_potential(dim, t)
            return self.pc.design.frame_potential(kind, dim, t)

        def check(rep):
            bad = _report_fields(rep, kind, dim, t, "exact", restricted)
            if bad:
                return bad
            if not isinstance(rep.value, Fraction) or rep.value != want:
                return f"value {rep.value!r}, orbit count {want}"
            return None

        return Op(repr((kind, dim, restricted, t)), run, check, lambda rep: str(rep.value))

    def _orbit_op(self, group, dim, space, k) -> Op:
        want = self.ref[(group, dim, space, k + 1)]
        npoints = 1 << (dim if space == "full" else dim - 2)
        order = group_order(group, dim)
        # orbits on single labels: O(N) splits F2^N into 0, j, the other
        # even labels and the odd ones; otherwise 0 (or {0, j}) and the rest
        if (group, space) == ("orthogonal", "full"):
            single = [1, 1, npoints // 2 - 2, npoints // 2]
        else:
            single = [1, npoints - 1]

        def check(sizes):
            if sizes != sorted(sizes) or sum(sizes) != npoints**k:
                return f"sizes {sizes[:8]}... do not partition {npoints}^{k} tuples"
            if any(order % s for s in sizes):
                return "an orbit size does not divide the group order"
            if len(sizes) != want:
                return f"{len(sizes)} orbits, exact potential F_{k + 1} = {want}"
            if k == 1 and sizes != single:
                return f"single-label orbits {sizes}, want {single}"
            return None

        return Op(
            repr((group, dim, space, k)),
            lambda: self.pc.design.orbit_decomposition(dim, k, group, space),
            check,
            lambda sizes: " ".join(map(str, sizes)),
        )


# ---------------------------------------------------------------------------


class CliLarge(Workload):
    """In-process CLI calls: stab-encode on generated files, and sample."""

    name = "cli_large"
    trace_cycles = 4
    # ("stab", n0): a rank n0 // 2 subspace of 2 n0 labels plus an ancilla pair.
    # The slots at the median and at the 90th percentile come in pairs of
    # one kind, so neither percentile sits on the edge between two kinds.
    SLOTS = tuple(("stab", n0) for n0 in (8, 24, 48, 64, 96, 112, 128)) + (
        ("sample", "o", 64),
        ("sample", "o", 256),
        ("sample", "o", 256),
        ("sample", "sp", 192),
        ("sample", "sp", 192),
    )
    MIXING_REFLECTIONS = 8

    def setup(self) -> None:
        self.call(["order", "--group", "o", "--n", "3"])

    def call(self, argv, stdin_text: str = ""):
        """pclifford.cli.main in-process: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.pc.cli.main(argv)
        finally:
            sys.stdin = saved
        return rc, out.getvalue(), err.getvalue()

    def make_op(self, slot, rng) -> Op:
        if slot[0] == "stab":
            return self._stab_op(slot[1], rng)
        return self._sample_op(slot[1], slot[2], rng.getrandbits(31))

    @staticmethod
    def _exit_error(res) -> Optional[str]:
        rc, _, err = res
        return f"exit {rc}: {err.strip()[:200]}" if rc != 0 or err else None

    def _stab_op(self, n0: int, rng) -> Op:
        n2 = 2 * n0
        r = n0 // 2
        # an isotropic even subspace: canonical pairs moved by random
        # even reflections, which preserve parity, rank and isotropy
        rows = [0b11 << (n2 - 2 * i) for i in range(1, r + 1)]
        for _ in range(self.MIXING_REFLECTIONS):
            a = rng.getrandbits(n2)
            a ^= checks.parity(a)
            rows = [checks.reflect(a, v) for v in rows]
        n, n2 = n0 + 1, n2 + 2
        rows = [v << 2 for v in rows]
        sign = rng.getrandbits(n2)
        text = "\n".join(
            [f"n={n} r={r}"] + [format(v, f"0{n2}b") for v in rows] + [f"sign={sign:0{n2}b}"]
        ) + "\n"
        basis = checks.rref(rows)

        def check(res):
            bad = self._exit_error(res)
            if bad:
                return bad
            mat_text, _, word_text = res[1].partition("\n\n")
            S = self.pc.f2core.parse_matrix(mat_text)
            if (S.rows, S.cols) != (n2, n2):
                return f"encoder is {S.rows}x{S.cols}, want {n2}x{n2}"
            m = list(S.data)
            if not checks.is_orthogonal(m):
                return "encoder is not orthogonal"
            for i, b in enumerate(basis, 1):
                if checks.mulvec(m, 0b11 << (n2 - 2 * i)) != b:
                    return f"canonical generator {i} is not routed to the subspace basis"
            word = self.pc.group.parse_braid_word(word_text, n)
            if len(word.gens) > 2 * n2:
                return f"braid word of length {len(word.gens)}"
            if self.pc.group.reflection_product(word.gens, n2).data != S.data:
                return "braid word does not multiply out to the encoder"
            return None

        return Op(f"stab {n0}", lambda: self.call(["stab-encode"], text), check, lambda res: res[1])

    def _sample_op(self, group: str, dim: int, seed: int) -> Op:
        argv = ["sample", "--group", group, "--dim", str(dim), "--seed", str(seed)]

        def check(res):
            bad = self._exit_error(res)
            if bad:
                return bad
            S = self.pc.f2core.parse_matrix(res[1])
            if (S.rows, S.cols) != (dim, dim):
                return f"sample is {S.rows}x{S.cols}"
            m = list(S.data)
            ok = checks.is_orthogonal(m) if group == "o" else checks.is_symplectic_pauli(m)
            return None if ok else f"sampled {group} matrix breaks its form identity"

        return Op(f"sample {group} {dim}", lambda: self.call(argv), check, lambda res: res[1])


# ---------------------------------------------------------------------------


class Propagate(Workload):
    """Strings pushed through an even braid word, then multiplied."""

    name = "propagate"
    trace_cycles = 4
    STRINGS = 2
    WORD = 4
    # (labels, via the Pauli basis); four in thirteen operations map first
    SLOTS = (
        ((64, False),) * 4
        + ((1024, False),) * 2
        + ((1024, True),) * 2
        + ((8192, False),) * 3
        + ((8192, True),) * 2
    )

    def setup(self) -> None:
        st, f2 = self.pc.strings, self.pc.f2core
        st.compose(st.MajoranaString(0, f2.BitVec(4, 12)), st.MajoranaString(1, f2.BitVec(4, 6)))

    @staticmethod
    def moves(word: list[int], inputs: list[tuple[int, int]]) -> int:
        """Conjugation steps that move a string, i.e. cost a phase product.

        For even a, the string at v anticommutes with mu(a) iff a . v = 1.
        """
        m = 0
        for _, v in inputs:
            for a in reversed(word):
                if checks.parity(a & v):
                    v ^= a
                    m += 1
        return m

    def make_op(self, slot, rng) -> Op:
        n2, pauli = slot
        # inputs are redrawn until exactly half of the steps move a string,
        # so every operation of a size does the same work
        while True:
            word = []
            while len(word) < self.WORD:
                a = rng.getrandbits(n2)
                if a and not checks.parity(a):
                    word.append(a)
            inputs = [(rng.randrange(4), rng.getrandbits(n2)) for _ in range(self.STRINGS)]
            if self.moves(word, inputs) == self.STRINGS * self.WORD // 2:
                break
        basis = "pauli" if pauli else "majorana"

        def prepared():
            """Input strings and word vectors in the operation's basis."""
            st, f2 = self.pc.strings, self.pc.f2core
            strings = [st.MajoranaString(p, f2.BitVec(n2, v)) for p, v in inputs]
            gens = [f2.BitVec(n2, a) for a in word]
            if pauli:
                strings = [st.jordan_wigner_map(s) for s in strings]
                gens = [st.jordan_wigner_map(st.MajoranaString(0, a)).v for a in gens]
            return strings, gens

        def push(s, gens):
            for a in reversed(gens):
                s = self.pc.group.braid_action(a, s, allow_odd=pauli)
            return s

        def run():
            strings, gens = prepared()
            pushed = [push(s, gens) for s in strings]
            prod = pushed[0]
            for p in pushed[1:]:
                prod = self.pc.strings.compose(prod, p)
            return pushed, prod

        def check(out):
            pushed, prod = out
            f2, st, gr = self.pc.f2core, self.pc.strings, self.pc.group
            R = gr.reflection_product([f2.BitVec(n2, a) for a in word], n2)
            W = f2.make_form("jw", n2) if pauli else None
            for (_, v), s in zip(inputs, pushed):
                want = R.mulvec(f2.BitVec(n2, v))
                if pauli:
                    want = W.mulvec(want)
                if s.basis != basis or s.v != want:
                    return "a pushed label differs from the reflection product"
            strings, gens = prepared()
            whole = strings[0]
            for s in strings[1:]:
                whole = st.compose(whole, s)
            want = push(whole, gens)
            if (prod.phase, prod.v, prod.basis) != (want.phase, want.v, want.basis):
                return f"product i^{prod.phase}, pushed product i^{want.phase}"
            return None

        def canon(out):
            pushed, prod = out
            return " ".join(f"{s.phase}{s.basis[0]}{s.v.bits:x}" for s in pushed + [prod])

        return Op(f"{n2} {basis}", run, check, canon)


WORKLOADS = {w.name: w for w in (McFrame, ExactDesign, CliLarge, Propagate)}
