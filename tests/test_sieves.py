import numpy as np
import pytest

from divisorlab import errors, sieves
from divisorlab.sieves import (TableKind, alternating_summatory_d,
                               load_table, save_table, sieve, sieve_divisors,
                               sieve_r, summatory_d, summatory_r)

from oracles import (alternating_sum_direct, divisor_count, lattice_cumulative,
                     summatory_r_by_characters, two_squares_count)


def _unreachable(*args, **kwargs):
    raise AssertionError("allocation reached past the memory ceiling")


def test_divisor_sieve_small_values():
    table = sieve_divisors(10)
    assert list(table.values[1:]) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]


def test_divisor_sieve_limit_one():
    assert list(sieve_divisors(1).values[1:]) == [1]


def test_divisor_sieve_twelve():
    assert sieve_divisors(12).value(12) == 6


def test_divisor_sieve_vs_trial_division():
    table = sieve_divisors(2000)
    for n in range(1, 2001):
        assert table.value(n) == divisor_count(n)


def test_primes_have_two_divisors():
    table = sieve_divisors(500)
    for p in (2, 3, 5, 7, 11, 97, 499):
        assert table.value(p) == 2


def test_r_sieve_small_values():
    table = sieve_r(25)
    assert [table.value(n) for n in (1, 2, 3, 4, 5)] == [4, 4, 0, 4, 8]
    assert table.value(25) == 12


def test_r_sieve_vs_lattice_enumeration():
    table = sieve_r(2000)
    for n in range(1, 2001):
        assert table.value(n) == two_squares_count(n)


def test_both_sieves_vs_oracles_at_every_small_limit():
    # limits 1..64 reach every residue class mod 4 and slices that start past the limit
    for limit in range(1, 65):
        ns = range(1, limit + 1)
        assert list(sieve_divisors(limit).values[1:]) == [divisor_count(n) for n in ns]
        assert list(sieve_r(limit).values[1:]) == [two_squares_count(n) for n in ns]


def test_summatory_d_examples():
    assert summatory_d(10) == 27
    assert summatory_d(0.5) == 0
    assert summatory_d(100) == 482


def test_summatory_d_vs_sieve_exhaustive():
    prefix = np.cumsum(sieve_divisors(10**4).values.astype(np.int64))
    for x in range(1, 10**4 + 1):
        assert summatory_d(x) == int(prefix[x])


def test_summatory_d_real_arguments():
    prefix = np.cumsum(sieve_divisors(10**6).values.astype(np.int64))
    rng = np.random.default_rng(11)
    for x in rng.uniform(1, 10**6, 200):
        assert summatory_d(float(x)) == int(prefix[int(x)])


def test_summatory_d_monotone_and_floors():
    values = [summatory_d(x) for x in range(1, 300)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert summatory_d(17.9) == summatory_d(17)


def test_summatory_r_examples():
    assert summatory_r(5) == 20
    assert summatory_r(0.9) == 0
    assert summatory_r(25) == 80


def test_summatory_r_real_arguments():
    prefix = np.cumsum(sieve_r(10**6).values.astype(np.int64))
    rng = np.random.default_rng(13)
    for x in [*rng.uniform(1, 10**6, 200), 10**6]:
        assert summatory_r(float(x)) == int(prefix[int(x)])


def test_summatory_r_vs_lattice_counting():
    ref = lattice_cumulative(1500)
    for x in range(1, 1501):
        assert summatory_r(x) == int(ref[x])


@pytest.mark.parametrize("x", [0, 1, 2, 5, 10, 99, 12345, 10**6 + 7, 5 * 10**6,
                               10**8, 2.75, 10**4 + 0.5])
def test_summatory_r_vs_character_identity(x):
    assert summatory_r(x) == summatory_r_by_characters(x)


def test_alternating_sum_examples():
    assert alternating_summatory_d(1) == 2          # d(2)+d(4)-d(1)-d(3)
    assert alternating_summatory_d(0.2) == 0
    assert alternating_summatory_d(2.5) == 7


def test_alternating_sum_vs_direct():
    table = sieve_divisors(10**5)
    for y in range(1, 3001):
        assert alternating_summatory_d(y / 4) == alternating_sum_direct(y, table.values)
    rng = np.random.default_rng(5)
    for y in rng.integers(1, 10**5, 200):
        assert alternating_summatory_d(int(y) / 4) == \
            alternating_sum_direct(int(y), table.values)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        summatory_d(-1)
    with pytest.raises(ValueError):
        alternating_summatory_d(-0.5)


def test_capacity_error(monkeypatch, tmp_path):
    path = tmp_path / "t.dvt"
    save_table(sieve_divisors(1000), path)
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 1000)
    with pytest.raises(errors.CapacityError):
        sieve_divisors(10**6)
    with pytest.raises(errors.CapacityError):
        sieve_r(10**6)
    with pytest.raises(errors.CapacityError):   # 2 bytes per entry of 1000
        load_table(path)
    monkeypatch.undo()
    with pytest.raises(errors.CapacityError):
        sieve_divisors(10**13)


def test_core_table_memory_ceiling(monkeypatch):
    # 24 bytes per entry, checked before the first array
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 24 * 1001)
    assert len(sieves.core_tables(1000)[0]) == 1001
    monkeypatch.setattr(sieves.np, "ones", _unreachable)
    with pytest.raises(errors.CapacityError):
        sieves.core_tables(1001)
    with pytest.raises(errors.CapacityError):
        sieves.core_families(4 * 1001)


def test_sieve_reuses_only_an_adequate_table():
    divisors = sieve_divisors(50)
    assert sieve(TableKind.DIVISOR, 50, divisors) is divisors
    assert sieve(TableKind.DIVISOR, 20, divisors) is divisors
    bigger = sieve(TableKind.DIVISOR, 51, divisors)
    assert bigger.limit == 51 and (bigger.values == sieve_divisors(51).values).all()
    circle = sieve(TableKind.SUM_OF_TWO_SQUARES, 50, divisors)
    assert circle.kind is TableKind.SUM_OF_TWO_SQUARES
    assert (circle.values == sieve_r(50).values).all()
    assert (sieve(TableKind.DIVISOR, 30).values == sieve_divisors(30).values).all()


def test_table_roundtrip(tmp_path):
    table = sieve_divisors(10)
    path = tmp_path / "d10.dvt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.limit == 10
    assert loaded.kind is TableKind.DIVISOR
    assert (loaded.values == table.values).all()


def test_table_roundtrip_r(tmp_path):
    table = sieve_r(40)
    path = tmp_path / "r40.dvt"
    save_table(table, path)
    loaded = load_table(path, expected_kind=TableKind.SUM_OF_TWO_SQUARES)
    assert (loaded.values == table.values).all()


def test_truncated_file_rejected(tmp_path):
    table = sieve_divisors(10)
    path = tmp_path / "d10.dvt"
    save_table(table, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-6])
    with pytest.raises(errors.TableFormatError):
        load_table(path)


def test_corrupted_payload_rejected(tmp_path):
    table = sieve_divisors(10)
    path = tmp_path / "d10.dvt"
    save_table(table, path)
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.TableFormatError, match="checksum"):
        load_table(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.dvt"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(errors.TableFormatError, match="magic"):
        load_table(path)


def test_kind_mismatch(tmp_path):
    table = sieve_r(10)
    path = tmp_path / "r10.dvt"
    save_table(table, path)
    with pytest.raises(errors.TableKindMismatch):
        load_table(path, expected_kind=TableKind.DIVISOR)


def test_interrupted_save_leaves_no_partial_table(tmp_path, monkeypatch):
    """A write that fails half-way neither creates a file under the final
    name nor damages the table already there, and leaves no temporary."""
    real_open = open

    class HalfWritten:
        def __init__(self, name, mode):
            self.fh = real_open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(bytes(data)[:len(data) // 2])
            raise OSError("disk full")

    fresh, kept = tmp_path / "divisor-100.dvt", tmp_path / "divisor-50.dvt"
    save_table(sieve_divisors(50), kept)
    monkeypatch.setattr(sieves, "open", HalfWritten, raising=False)
    for path in (fresh, kept):
        with pytest.raises(OSError, match="disk full"):
            save_table(sieve_divisors(100), path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == [kept.name]
    assert (load_table(kept).values == sieve_divisors(50).values).all()
