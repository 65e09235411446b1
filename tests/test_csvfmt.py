"""The vectorised CSV formatter: byte parity with ``"%.17g" %`` on hard and
random inputs, a fast path that settles nearly every ordinary cell, and
output that does not depend on the block size."""

from decimal import Decimal

import numpy as np
import pytest

import dopplerlab.cli as cli_mod
from dopplerlab._csvfmt import FAST_MAX, FAST_MIN, _digits, format_rows
from dopplerlab.cli import write_csv


def percent_rows(table):
    """The reference: one ``%`` over the row template repeated ``n`` times."""
    n, m = table.shape
    return ((",".join(["%.17g"] * m) + "\n") * n % tuple(table.ravel().tolist())).encode()


def assert_matches(values, m=4):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    values = np.concatenate([values, np.zeros(-values.size % m)])
    table = values.reshape(-1, m)
    assert format_rows(table) == percent_rows(table)


def settled_share(values):
    return float(np.mean(_digits(np.abs(np.asarray(values, dtype=float)))[2]))


def ties():
    """Doubles exactly halfway between two 17-digit decimals.

    ``n / 2**j`` (``n`` odd) is the decimal ``n * 5**j / 10**j``, so it ends
    in 5 after exactly ``j`` places; with 18 significant digits it is a tie
    at 17, which ``%`` rounds half to even.
    """
    rng = np.random.default_rng(7)
    out = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        for n in rng.integers(lo, hi, size=40):
            n |= 1
            value = float(int(n)) / 2.0 ** j
            if len(str(int(n) * 5 ** j)) == 18:
                out.append(value)
    return out


def test_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    table = bits.view(np.float64).reshape(-1, 4)
    assert format_rows(table) == percent_rows(table)


def test_scaled_normals_at_every_exponent():
    rng = np.random.default_rng(12)
    assert_matches(rng.normal(size=200_000) * 10.0 ** rng.integers(-320, 308, size=200_000))


def test_constructed_ties():
    values = ties()
    assert len(values) > 500
    for v in values[:50]:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert settled_share(values) == 0.0   # every tie goes through %
    assert_matches(values)


@pytest.mark.parametrize("scale", [10.0 ** k for k in (-20, -8, -1, 0, 3, 17, 100)]
                         + [2.0 ** k for k in (-40, -3, 5, 60)])
def test_near_ties_at_several_exponents(scale):
    base = np.array([1234567890123456.5, 1234567890123456.25, 1234567890123456.75,
                     9999999999999999.5, 1000000000000000.5, 5.5, 0.125, 2.5])
    values = base * scale
    assert_matches(np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)]))


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_matches(values)
    # log10 lands one off on many of these; the exponent step settles them.
    assert settled_share(values[(values >= FAST_MIN) & (values < FAST_MAX)]) >= 0.99


def test_integers_near_1e17_and_notation_edges():
    ints = np.arange(10 ** 17 - 300, 10 ** 17 + 300, 7, dtype=np.int64).astype(float)
    edges = np.array([1e-4, 1e-5, 9.9999999999999995e-5, 1e16, 1e17, 99999999999999999.0,
                      123456789012345678.0, 0.1, 1.0, 10.0, 2 ** 53, 2 ** 53 + 2.0])
    assert_matches(np.concatenate([ints, edges, np.nextafter(edges, 0),
                                   np.nextafter(edges, np.inf)]))


def test_specials_subnormals_and_range_edges():
    edges = np.array([FAST_MIN, FAST_MAX])
    values = np.concatenate([
        [0.0, np.nan, np.inf, 5e-324, 1e-320, 2.2250738585072009e-308,
         2.2250738585072014e-308, 1.7976931348623157e308],
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        np.random.default_rng(13).random(1000) * 2.0 ** -1022])
    assert_matches(values)
    assert format_rows(np.array([[-0.0, 0.0, -np.nan]])) == b"-0,0,nan\n"


def test_fast_path_settles_ordinary_tables():
    t = np.linspace(0.0, 3000.0, 20_000)
    table = np.column_stack([t, np.cos(t), np.sin(3.0 * t), np.exp(-t / 700.0),
                             np.exp(t / 300.0), 1.0 + 0.2 * np.cos(0.1 * t)])
    assert settled_share(table.ravel()) >= 0.999
    assert format_rows(table) == percent_rows(table)


def test_output_does_not_depend_on_block_size(tmp_path, monkeypatch):
    t = np.linspace(0.0, 60.0, 1001)
    columns = [t, np.cos(t), -np.exp(t), np.zeros_like(t), t ** 5 * 1e-300]
    header = ["t", "cos", "exp", "zero", "tiny"]
    paths = []
    for block in (cli_mod.CSV_BLOCK, 7, t.size * len(columns)):
        monkeypatch.setattr(cli_mod, "CSV_BLOCK", block)
        paths.append(tmp_path / f"block{block}.csv")
        write_csv(str(paths[-1]), header, columns)
    first = paths[0].read_bytes()
    assert first == b"t,cos,exp,zero,tiny\n" + percent_rows(np.column_stack(columns))
    assert all(p.read_bytes() == first for p in paths[1:])
