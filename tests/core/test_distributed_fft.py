"""Tests for the distributed 1-D FFT (the paper's rejected alternative)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import apply_serial_filter, make_filter_plan, prepare_filter_backend
from repro.core.distributed_fft import (
    bit_reverse_indices,
    bitrev_transfer,
    check_distributed_fft_shape,
    fft_dif_bitrev,
    ifft_dit_bitrev,
    is_power_of_two,
)
from repro.grid import Decomposition, SphericalGrid
from repro.parallel import GENERIC, ProcessorMesh, Simulator
from repro.verify import tolerances


class TestBitReversal:
    def test_small_permutation(self):
        np.testing.assert_array_equal(
            bit_reverse_indices(8), [0, 4, 2, 6, 1, 5, 3, 7]
        )

    def test_involution(self):
        br = bit_reverse_indices(32)
        np.testing.assert_array_equal(br[br], np.arange(32))

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            bit_reverse_indices(12)

    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(64)
        assert not is_power_of_two(0) and not is_power_of_two(144)


class TestSerialTransforms:
    @given(logn=st.integers(1, 7), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_dif_matches_numpy(self, logn, seed):
        n = 2**logn
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = fft_dif_bitrev(x)
        ref = np.fft.fft(x)[bit_reverse_indices(n)]
        np.testing.assert_allclose(got, ref, atol=tolerances.FFT_ATOL)

    @given(logn=st.integers(1, 7), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, logn, seed):
        n = 2**logn
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft_dit_bitrev(fft_dif_bitrev(x)), x,
                                   atol=tolerances.FFT_ATOL)

    def test_batched_axis0(self, rng):
        x = rng.standard_normal((16, 4))
        ref = np.fft.fft(x, axis=0)[bit_reverse_indices(16)]
        np.testing.assert_allclose(fft_dif_bitrev(x), ref, atol=tolerances.FFT_ATOL)

    def test_rejects_non_power_length(self):
        with pytest.raises(ValueError):
            fft_dif_bitrev(np.zeros(12))
        with pytest.raises(ValueError):
            ifft_dit_bitrev(np.zeros(10))


class TestBitrevTransfer:
    def test_hermitian_mirroring(self):
        n = 8
        t = np.array([1.0, 0.9, 0.5, 0.2, 0.1])
        full = bitrev_transfer(t, n)
        br = bit_reverse_indices(n)
        natural = full[np.argsort(br)]  # undo the permutation
        np.testing.assert_allclose(natural[:5], t)
        np.testing.assert_allclose(natural[5:], t[1:4][::-1])

    def test_filtering_equivalence(self, rng):
        """DIF -> bit-reversed multiply -> DIT equals rfft filtering."""
        n = 32
        t = np.clip(rng.random(n // 2 + 1), 0, 1)
        t[0] = 1.0
        line = rng.standard_normal(n)
        via_rfft = np.fft.irfft(np.fft.rfft(line) * t, n=n)
        spec = fft_dif_bitrev(line) * bitrev_transfer(t, n)
        via_dif = ifft_dit_bitrev(spec).real
        np.testing.assert_allclose(via_dif, via_rfft, atol=tolerances.FFT_ATOL)

    def test_bin_count_checked(self):
        with pytest.raises(ValueError):
            bitrev_transfer(np.ones(4), 16)


class TestShapeValidation:
    def test_accepts_valid(self):
        assert check_distributed_fft_shape(32, 4) == 8

    def test_rejects_mixed_radix_line(self):
        """The AGCM's 144-point lines: radix-2 cannot handle them."""
        with pytest.raises(ValueError, match="144"):
            check_distributed_fft_shape(144, 4)

    def test_rejects_non_power_ranks(self):
        with pytest.raises(ValueError):
            check_distributed_fft_shape(32, 3)

    def test_backend_validation_at_prepare(self):
        grid = SphericalGrid(16, 24)  # 24 is not a power of two
        plan = make_filter_plan(grid)
        decomp = Decomposition(16, 24, ProcessorMesh(2, 2))
        with pytest.raises(ValueError):
            prepare_filter_backend("fft-distributed", plan, decomp)


class TestDistributedBackend:
    @pytest.fixture(scope="class")
    def setup(self):
        grid = SphericalGrid(nlat=16, nlon=32)
        rng = np.random.default_rng(5)
        fields = {
            n: rng.standard_normal((16, 32, 3)) for n in ("u", "v", "pt", "q")
        }
        fields["ps"] = rng.standard_normal((16, 32, 1))
        plan = make_filter_plan(grid)
        ref = {n: f.copy() for n, f in fields.items()}
        apply_serial_filter(plan, ref)
        return grid, fields, plan, ref

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (4, 4), (2, 8)])
    def test_matches_serial_filter(self, setup, dims):
        grid, fields, plan, ref = setup
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(grid.nlat, grid.nlon, mesh)
        backend = prepare_filter_backend("fft-distributed", plan, decomp)

        def program(ctx):
            local = {
                n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields
            }
            yield from backend.apply(ctx, local)
            return local

        res = Simulator(mesh.size, GENERIC).run(program)
        for n in fields:
            got = decomp.gather(
                [res.returns[r][n] for r in range(mesh.size)]
            )
            np.testing.assert_allclose(got, ref[n], atol=tolerances.FFT_ATOL)

    def test_log_p_message_rounds(self, setup):
        """2 log2(P) block exchanges per rank per filtering pass."""
        grid, fields, plan, _ = setup
        mesh = ProcessorMesh(2, 8)
        decomp = Decomposition(grid.nlat, grid.nlon, mesh)
        backend = prepare_filter_backend("fft-distributed", plan, decomp)

        def program(ctx):
            local = {
                n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields
            }
            yield from backend.apply(ctx, local)

        res = Simulator(mesh.size, GENERIC).run(program)
        # Every rank in an active row sends 2 * log2(8) = 6 messages.
        active = [r for r in range(mesh.size)
                  if res.trace.ranks[r].messages_sent > 0]
        for r in active:
            assert res.trace.ranks[r].messages_sent == 6

    def test_fewer_messages_than_transpose(self, setup):
        """The paper's trade: the 1-D FFT needs fewer messages but moves
        more data than the transpose."""
        grid, fields, plan, _ = setup
        mesh = ProcessorMesh(2, 8)
        decomp = Decomposition(grid.nlat, grid.nlon, mesh)

        traces = {}
        for name in ("fft", "fft-distributed"):
            backend = prepare_filter_backend(name, plan, decomp)

            def program(ctx):
                local = {
                    n: decomp.scatter(fields[n])[ctx.rank].copy()
                    for n in fields
                }
                yield from backend.apply(ctx, local)

            traces[name] = Simulator(mesh.size, GENERIC).run(program).trace
        assert (
            traces["fft-distributed"].total_messages()
            < traces["fft"].total_messages()
        )
        assert (
            traces["fft-distributed"].total_bytes()
            > traces["fft"].total_bytes()
        )
