"""Command line interface.

Exit codes: 0 success, 1 input or usage error, 2 internal failure.
Randomized subcommands draw no entropy from the environment; --seed
defaults to DEFAULT_SEED so repeated invocations agree byte for byte.
main builds its parser once per process, on the first call; argparse
formats help when it prints, so COLUMNS still applies to each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .f2core import BitVec, format_matrix, make_form
from .strings import BASES, MajoranaString, compose, format_string, parse_string
from .group import (
    LABEL_CAP,
    braid_action,
    format_braid_word,
    group_order,
    level_bits,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
    sample_symplectic_random,
    word_orthogonal,
)
from .stabilizer import (
    add_ancilla,
    canonical_isotropic,
    parse_stabilizer,
    stab_clifford,
    transform_isotropic,
)
from .design import frame_potential, orbit_decomposition, parity_frame_potential

DEFAULT_SEED = 271828

_GROUPS = {"o": "orthogonal", "sp": "symplectic"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pclifford",
        description="Majorana-label Clifford algebra: sampling, encoding, designs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_dim(p):
        p.add_argument("--dim", type=int, help="label dimension (2n)")
        p.add_argument("--n", type=int, help="mode pairs; shorthand for --dim 2n")

    def add_seed(p, default):
        p.add_argument(
            "--seed", type=int, default=default, help=f"rng seed (default {DEFAULT_SEED})"
        )

    p = sub.add_parser("order", help="group order")
    p.add_argument("--group", choices=sorted(_GROUPS), required=True)
    add_dim(p)
    p.set_defaults(run=_cmd_order)

    p = sub.add_parser("sample", help="sample one group element")
    p.add_argument("--group", choices=sorted(_GROUPS), required=True)
    add_dim(p)
    p.add_argument("--index", type=int, help="1-based element index (exact bijection)")
    add_seed(p, None)  # None tells a given --seed from the default, which --index excludes
    p.add_argument("--basis", choices=BASES)
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("jw", help="basis-change matrix between label conventions")
    add_dim(p)
    p.set_defaults(run=_cmd_jw)

    p = sub.add_parser("compose", help="multiply strings read from a file or stdin")
    p.add_argument("path", nargs="?", help="input file ('-' or omitted: stdin)")
    p.add_argument("--basis", choices=BASES, default="majorana")
    p.set_defaults(run=_cmd_compose)

    p = sub.add_parser("stab-encode", help="orthogonal encoder for a stabilizer file")
    p.add_argument("path", nargs="?", help="stabilizer file ('-' or omitted: stdin)")
    p.set_defaults(run=_cmd_stab_encode)

    p = sub.add_parser("frame", help="frame potential report as JSON")
    p.add_argument("--group", choices=sorted(_GROUPS), required=True)
    add_dim(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=int, default=10**5)
    add_seed(p, DEFAULT_SEED)
    p.add_argument("--parity-restricted", action="store_true")
    p.set_defaults(run=_cmd_frame)

    p = sub.add_parser("orbits", help="orbit sizes by Witt's theorem")
    p.add_argument("--group", choices=sorted(_GROUPS), required=True)
    add_dim(p)
    p.add_argument("--tuple-order", type=int, default=1)
    p.add_argument("--space", choices=["full", "even-quotient"], default="full")
    p.set_defaults(run=_cmd_orbits)

    p = sub.add_parser("verify", help="dense-oracle cross checks; exit 0 iff all pass")
    add_seed(p, DEFAULT_SEED)
    p.set_defaults(run=_cmd_verify)

    return parser


def _resolve_dim(ns: argparse.Namespace) -> int:
    if (ns.dim is None) == (ns.n is None):
        raise ValueError("give exactly one of --dim or --n")
    return ns.dim if ns.dim is not None else 2 * ns.n


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_order(ns: argparse.Namespace) -> int:
    kind, dim = _GROUPS[ns.group], _resolve_dim(ns)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    # the order is at least 2^low and log2(10) < 10/3, so the digit limit is
    # decided from bit lengths before a product of that size is formed
    low = level_bits(kind, dim)
    if limit and (3 * low > 10 * limit or group_order(kind, dim) >= 10**limit):
        raise ValueError(
            f"group order has more than {limit} digits, Python's limit for printing an integer"
        )
    print(group_order(kind, dim))
    return 0


def _cmd_sample(ns: argparse.Namespace) -> int:
    kind, dim, index = _GROUPS[ns.group], _resolve_dim(ns), ns.index
    if index is not None and ns.seed is not None:
        raise ValueError("--index and --seed are mutually exclusive")
    seed = DEFAULT_SEED if ns.seed is None else ns.seed
    if kind == "orthogonal":
        if ns.basis is not None:
            raise ValueError("--basis applies to symplectic sampling only")
        out = (
            sample_orthogonal(dim, index)
            if index is not None
            else sample_orthogonal_random(dim, seed)
        )
    else:
        basis = ns.basis or "pauli"
        out = (
            sample_symplectic(dim, index, basis)
            if index is not None
            else sample_symplectic_random(dim, seed, basis)
        )
    sys.stdout.write(format_matrix(out.m))
    return 0


def _cmd_jw(ns: argparse.Namespace) -> int:
    dim = _resolve_dim(ns)
    if dim > LABEL_CAP:  # the matrix prints dim^2 characters
        raise ValueError(f"dimension {dim} exceeds the cap of {LABEL_CAP} labels on the jw matrix")
    sys.stdout.write(format_matrix(make_form("jw", dim)))
    return 0


def _cmd_compose(ns: argparse.Namespace) -> int:
    lines = [ln for ln in _read_text(ns.path).splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no strings to compose")
    out = parse_string(lines[0], ns.basis)
    for ln in lines[1:]:
        out = compose(out, parse_string(ln, ns.basis))
    print(format_string(out))
    return 0


def _cmd_stab_encode(ns: argparse.Namespace) -> int:
    stab = parse_stabilizer(_read_text(ns.path))
    word = stab_clifford(stab.space)
    sys.stdout.write(format_matrix(word_orthogonal(word).m))
    sys.stdout.write(format_braid_word(word))
    return 0


def _cmd_frame(ns: argparse.Namespace) -> int:
    kind, dim = _GROUPS[ns.group], _resolve_dim(ns)
    mode = "exact" if ns.exact else "monte_carlo"
    if ns.parity_restricted:
        if kind != "orthogonal":
            raise ValueError("--parity-restricted requires --group o")
        report = parity_frame_potential(dim, ns.t, mode=mode, seed=ns.seed, samples=ns.samples)
    else:
        report = frame_potential(kind, dim, ns.t, mode=mode, seed=ns.seed, samples=ns.samples)
    print(report.to_json())
    return 0


def _cmd_orbits(ns: argparse.Namespace) -> int:
    kind, dim = _GROUPS[ns.group], _resolve_dim(ns)
    sizes = orbit_decomposition(dim, ns.tuple_order, kind, ns.space.replace("-", "_"))
    print(
        json.dumps(
            {
                "group": kind,
                "dim": dim,
                "space": ns.space,
                "tuple_order": ns.tuple_order,
                "count": len(sizes),
                "sizes": sizes,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# verify: dense-oracle cross checks


def _suite_jw_involution(rng: random.Random):
    for dim in range(2, 18, 2):
        W = make_form("jw", dim)
        if W.mul(W) != make_form("identity", dim):
            return False, f"W^2 != I at dim {dim}"
        eta = make_form("eta", dim)
        omega = make_form("omega", dim)
        if W.transpose().mul(eta).mul(W) != omega:
            return False, f"W^T eta W != omega at dim {dim}"
    return True, "dims 2..16"


def _suite_string_composition(rng: random.Random):
    import numpy as np
    from . import dense

    # every pair at 2 and 4 labels, then seeded pairs at 6
    pairs = [
        (BitVec(n2, vb), BitVec(n2, wb))
        for n2 in (2, 4)
        for vb in range(1 << n2)
        for wb in range(1 << n2)
    ]
    pairs += [(BitVec(6, rng.randrange(64)), BitVec(6, rng.randrange(64))) for _ in range(300)]
    for v, w in pairs:
        s, t = MajoranaString(0, v), MajoranaString(0, w)
        want = dense.dense_string(s) @ dense.dense_string(t)
        if not np.array_equal(dense.dense_string(compose(s, t)), want):
            return False, f"mismatch at {v} * {w}"
    return True, f"{len(pairs)} products"


def _suite_braid_conjugation(rng: random.Random):
    import numpy as np
    from . import dense

    for _ in range(100):
        n = rng.randint(1, 3)
        n2 = 2 * n
        while True:
            a = BitVec(n2, rng.randrange(1 << n2))
            if a.parity == 0:
                break
        v = BitVec(n2, rng.randrange(1 << n2))
        s = MajoranaString(rng.randrange(4), v)
        B = dense.dense_braid(a)
        want = B @ dense.dense_string(s) @ B.conj().T
        got = dense.dense_string(braid_action(a, s))
        if not np.allclose(got, want, atol=1e-9):
            return False, f"mismatch at a={a}, s={format_string(s)}"
    return True, "100 conjugations"


def _suite_encoder(rng: random.Random):
    for _ in range(50):
        n0 = rng.randint(1, 7)
        r = rng.randint(1, n0)
        S0 = sample_orthogonal_random(2 * n0, rng)
        M = add_ancilla(transform_isotropic(S0, canonical_isotropic(n0, r)))
        S = word_orthogonal(stab_clifford(M))
        std = canonical_isotropic(M.n, M.r)
        for i, b in enumerate(M.basis):
            if S.m.mulvec(std.basis[i]) != b:
                return False, f"generator {i + 1} not routed"
    return True, "50 encoders"


def _suite_sampler_enumeration(rng: random.Random):
    for dim in range(1, 5):
        order = group_order("orthogonal", dim)
        seen = {sample_orthogonal(dim, i).m.data for i in range(1, order + 1)}
        if len(seen) != order:
            return False, f"O({dim}) enumeration collides"
    seen = {sample_symplectic(2, i).m.data for i in range(1, 7)}
    if len(seen) != 6:
        return False, "Sp(2) enumeration collides"
    return True, "O(1..4), Sp(2)"


def _suite_frame_small(rng: random.Random):
    want = (1, 2, 5, 15)
    for t in range(1, 5):
        po = parity_frame_potential(4, t).value
        ps = frame_potential("symplectic", 2, t).value
        if po != want[t - 1] or ps != want[t - 1]:
            return False, f"t={t}: restricted O(4) {po}, Sp(2) {ps}"
    return True, "restricted O(4) = Sp(2), t = 1..4"


_VERIFY_SUITES = [
    ("jw-involution", _suite_jw_involution),
    ("string-composition", _suite_string_composition),
    ("braid-conjugation", _suite_braid_conjugation),
    ("encoder-roundtrip", _suite_encoder),
    ("sampler-enumeration", _suite_sampler_enumeration),
    ("frame-potential-small", _suite_frame_small),
]


def _cmd_verify(ns: argparse.Namespace) -> int:
    failures = 0
    for name, fn in _VERIFY_SUITES:
        ok, detail = fn(random.Random(ns.seed))
        print(f"{'ok' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 1  # argparse usage errors map to the input-error code
    try:
        return ns.run(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
