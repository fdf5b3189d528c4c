"""Tests for the HGS / FHGS / CHGS protocols and GC non-linear evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.he import ExactBFVBackend, toy_parameters
from repro.fixedpoint import FixedPointFormat, decode, encode
from repro.mpc import AdditiveSharing
from repro.nn import softmax
from repro.protocols import (
    EXACT_DEMO_FORMAT,
    FHGSMatmul,
    GCNonlinearEvaluator,
    HGSLinearLayer,
    PROTOCOL_FORMAT,
    garbled_share_relu,
)
from repro.protocols.channel import Channel, Message, Phase

#: one message: (request tag or None, phase, bytes)
_message_strategy = st.tuples(
    st.sampled_from([None, "r0", "r1", "r2"]),
    st.sampled_from([Phase.ONLINE, Phase.OFFLINE]),
    st.integers(min_value=0, max_value=1 << 20),
)


class TestChannel:
    def test_byte_and_round_accounting(self):
        channel = Channel()
        channel.send("client", "server", 100, step="a", phase=Phase.OFFLINE)
        channel.send("server", "client", 50, step="a", phase=Phase.ONLINE)
        channel.send("client", "server", 25, step="b", phase=Phase.ONLINE)
        assert channel.total_bytes() == 175
        assert channel.total_bytes(Phase.ONLINE) == 75
        assert channel.round_count(Phase.ONLINE, step="a") == 1
        assert channel.steps() == ["a", "b"]

    def test_network_time(self):
        channel = Channel()
        channel.send("client", "server", 100_000_000)
        assert channel.network_time() == pytest.approx(1.0 + 2.3e-3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("send"), _message_strategy),
                st.tuples(st.just("merge"), st.lists(_message_strategy, max_size=4)),
                st.tuples(st.just("reset"), st.none()),
            ),
            max_size=25,
        )
    )
    def test_running_totals_equal_a_rescan(self, operations):
        """The O(1) phase and request totals track every send, merge and
        reset exactly as a rescan of ``messages`` would count them."""
        channel = Channel()
        for op, arg in operations:
            if op == "send":
                request, phase, num_bytes = arg
                channel.set_request(request)
                channel.send("client", "server", num_bytes, phase=phase)
            elif op == "merge":
                channel.merge(
                    [Message("server", "client", b, p, "merged", request=r) for r, p, b in arg]
                )
            else:
                channel.reset()
        for request in (None, "r0", "r1", "r2"):
            for phase in (None, Phase.ONLINE, Phase.OFFLINE):
                scanned = [
                    m for m in channel.messages
                    if (phase is None or m.phase is phase)
                    and (request is None or m.request == request)
                ]
                assert channel.total_bytes(phase, request=request) == sum(
                    m.num_bytes for m in scanned
                )
                assert channel.round_count(phase, request=request) == len(scanned)


class TestHGS:
    def test_linear_layer_correct(self, protocol_backend, protocol_sharing, channel, rng):
        x = rng.integers(0, 500, size=(4, 6))
        w = rng.integers(0, 500, size=(6, 3))
        layer = HGSLinearLayer(
            weights=w, bias=None, backend=protocol_backend, sharing=protocol_sharing,
            channel=channel, step="linear", input_rows=4, seed=1,
        )
        layer.offline()
        out = layer.online(protocol_sharing.share(x))
        assert np.array_equal(out.reconstruct(), (x @ w) % protocol_sharing.modulus)

    def test_bias_added(self, protocol_backend, protocol_sharing, channel, rng):
        x = rng.integers(0, 100, size=(2, 3))
        w = rng.integers(0, 100, size=(3, 2))
        b = rng.integers(0, 100, size=2)
        layer = HGSLinearLayer(
            weights=w, bias=b, backend=protocol_backend, sharing=protocol_sharing,
            channel=channel, step="linear", input_rows=2, seed=2,
        )
        layer.offline()
        out = layer.online(protocol_sharing.share(x))
        assert np.array_equal(out.reconstruct(), (x @ w + b) % protocol_sharing.modulus)

    def test_online_before_offline_raises(self, protocol_backend, protocol_sharing, channel):
        layer = HGSLinearLayer(
            weights=np.ones((2, 2), dtype=np.int64), bias=None,
            backend=protocol_backend, sharing=protocol_sharing, channel=channel,
            step="x", input_rows=2,
        )
        with pytest.raises(ProtocolError):
            layer.online(protocol_sharing.share(np.ones((2, 2), dtype=np.int64)))

    def test_offline_phase_attribution(self, protocol_backend, protocol_sharing, rng):
        w = rng.integers(0, 10, size=(3, 3))
        for phase in (Phase.OFFLINE, Phase.ONLINE):
            channel = Channel()
            layer = HGSLinearLayer(
                weights=w, bias=None, backend=protocol_backend, sharing=protocol_sharing,
                channel=channel, step="x", input_rows=2, seed=3,
            )
            layer.offline(phase=phase)
            assert channel.total_bytes(phase) > 0
            other = Phase.ONLINE if phase is Phase.OFFLINE else Phase.OFFLINE
            assert channel.total_bytes(other) == 0

    def test_hgs_runs_on_exact_backend(self, rng):
        """The HGS flow only needs additive HE, so the real BFV backend suffices."""
        backend = ExactBFVBackend(toy_parameters(64), seed=5)
        fmt = EXACT_DEMO_FORMAT
        sharing = AdditiveSharing(fmt, seed=5)
        channel = Channel()
        x = rng.integers(0, 40, size=(3, 4))
        w = rng.integers(0, 7, size=(4, 2))  # small weights keep the toy noise budget positive
        layer = HGSLinearLayer(
            weights=w, bias=None, backend=backend, sharing=sharing, channel=channel,
            step="exact", input_rows=3, fmt=fmt, seed=6,
        )
        layer.offline()
        out = layer.online(sharing.share(x))
        assert np.array_equal(out.reconstruct(), (x @ w) % fmt.modulus)


class TestFHGS:
    def test_qk_product(self, protocol_backend, protocol_sharing, channel, rng):
        q = rng.integers(0, 300, size=(4, 6))
        k = rng.integers(0, 300, size=(4, 6))
        module = FHGSMatmul(
            left_shape=(4, 6), right_shape=(4, 6), backend=protocol_backend,
            sharing=protocol_sharing, channel=channel, step="qk",
            transpose_right=True, seed=3,
        )
        module.offline()
        out = module.online(protocol_sharing.share(q), protocol_sharing.share(k))
        assert np.array_equal(out.reconstruct(), (q @ k.T) % protocol_sharing.modulus)

    def test_attention_value_product(self, protocol_backend, protocol_sharing, channel, rng):
        a = rng.integers(0, 300, size=(4, 4))
        v = rng.integers(0, 300, size=(4, 6))
        module = FHGSMatmul(
            left_shape=(4, 4), right_shape=(4, 6), backend=protocol_backend,
            sharing=protocol_sharing, channel=channel, step="av",
            transpose_right=False, seed=4,
        )
        module.offline()
        out = module.online(protocol_sharing.share(a), protocol_sharing.share(v))
        assert np.array_equal(out.reconstruct(), (a @ v) % protocol_sharing.modulus)

    def test_chgs_middle_weights(self, protocol_backend, protocol_sharing, channel, rng):
        x = rng.integers(0, 200, size=(4, 6))
        m = rng.integers(0, 100, size=(6, 6))
        module = FHGSMatmul(
            left_shape=(4, 6), right_shape=(4, 6), backend=protocol_backend,
            sharing=protocol_sharing, channel=channel, step="chgs",
            transpose_right=True, middle_weights=m, seed=5,
        )
        module.offline()
        out = module.online(protocol_sharing.share(x), protocol_sharing.share(x))
        assert np.array_equal(out.reconstruct(), (x @ m @ x.T) % protocol_sharing.modulus)

    def test_right_weight_folding(self, protocol_backend, protocol_sharing, channel, rng):
        a = rng.integers(0, 200, size=(4, 4))
        x = rng.integers(0, 200, size=(4, 6))
        w = rng.integers(0, 100, size=(6, 3))
        module = FHGSMatmul(
            left_shape=(4, 4), right_shape=(4, 6), backend=protocol_backend,
            sharing=protocol_sharing, channel=channel, step="avw",
            transpose_right=False, right_weights=w, seed=6,
        )
        module.offline()
        out = module.online(protocol_sharing.share(a), protocol_sharing.share(x))
        assert np.array_equal(out.reconstruct(), (a @ x @ w) % protocol_sharing.modulus)

    def test_single_online_interaction_server_to_client(
        self, protocol_backend, protocol_sharing, rng
    ):
        """CHGS's headline claim: one server->client interaction online."""
        channel = Channel()
        x = rng.integers(0, 50, size=(3, 4))
        m = rng.integers(0, 20, size=(4, 4))
        module = FHGSMatmul(
            left_shape=(3, 4), right_shape=(3, 4), backend=protocol_backend,
            sharing=protocol_sharing, channel=channel, step="chgs",
            transpose_right=True, middle_weights=m, seed=7,
        )
        module.offline()
        module.online(protocol_sharing.share(x), protocol_sharing.share(x))
        online_server_msgs = [
            msg for msg in channel.messages
            if msg.phase is Phase.ONLINE and msg.sender == "server"
        ]
        assert len(online_server_msgs) == 1

    def test_conflicting_weights_rejected(self, protocol_backend, protocol_sharing, channel):
        with pytest.raises(ProtocolError):
            FHGSMatmul(
                left_shape=(2, 2), right_shape=(2, 2), backend=protocol_backend,
                sharing=protocol_sharing, channel=channel, step="bad",
                middle_weights=np.eye(2, dtype=np.int64),
                right_weights=np.eye(2, dtype=np.int64),
            )


class TestGCNonlinear:
    def test_softmax_on_shares(self, protocol_sharing, channel, rng):
        evaluator = GCNonlinearEvaluator(protocol_sharing, channel, fmt=PROTOCOL_FORMAT)
        logits = rng.normal(0, 2, size=(3, 5))
        shared = protocol_sharing.share(encode(logits, PROTOCOL_FORMAT))
        result = evaluator.softmax(shared)
        got = decode(result.reconstruct(), PROTOCOL_FORMAT)
        assert np.max(np.abs(got - softmax(logits, axis=-1))) < 0.02

    def test_gelu_and_layernorm(self, protocol_sharing, channel, rng):
        evaluator = GCNonlinearEvaluator(protocol_sharing, channel, fmt=PROTOCOL_FORMAT)
        x = rng.normal(0, 1, size=(4, 8))
        shared = protocol_sharing.share(encode(x, PROTOCOL_FORMAT))
        gelu_result = decode(evaluator.gelu(shared).reconstruct(), PROTOCOL_FORMAT)
        assert np.max(np.abs(gelu_result - (0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))))) < 0.05
        gamma, beta = np.ones(8), np.zeros(8)
        ln_result = decode(
            evaluator.layer_norm(shared, gamma, beta).reconstruct(), PROTOCOL_FORMAT
        )
        expected = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        assert np.max(np.abs(ln_result - expected)) < 0.05

    def test_truncation_rescales(self, protocol_sharing, channel):
        evaluator = GCNonlinearEvaluator(protocol_sharing, channel, fmt=PROTOCOL_FORMAT)
        wide_fmt = PROTOCOL_FORMAT.with_frac_bits(2 * PROTOCOL_FORMAT.frac_bits)
        values = np.array([[1.5, -2.0]])
        shared = protocol_sharing.share(encode(values, wide_fmt))
        result = evaluator.truncate(shared, input_frac_bits=wide_fmt.frac_bits)
        assert np.allclose(decode(result.reconstruct(), PROTOCOL_FORMAT), values, atol=0.01)

    def test_garble_phase_attribution(self, protocol_sharing, rng):
        for offline in (True, False):
            channel = Channel()
            evaluator = GCNonlinearEvaluator(
                protocol_sharing, channel, fmt=PROTOCOL_FORMAT, garble_offline=offline
            )
            shared = protocol_sharing.share(encode(rng.normal(size=(2, 2)), PROTOCOL_FORMAT))
            evaluator.relu(shared)
            has_offline_tables = channel.total_bytes(Phase.OFFLINE) > 0
            assert has_offline_tables == offline

    def test_fully_garbled_share_relu(self, rng):
        fmt = FixedPointFormat(total_bits=15, frac_bits=7)
        sharing = AdditiveSharing(fmt, seed=9)
        values = np.array([[1.0, -2.5], [0.25, -0.125]])
        shared = sharing.share(encode(values, fmt))
        result, stats = garbled_share_relu(sharing, shared, fmt=fmt, seed=1)
        got = decode(result.reconstruct(), fmt)
        assert np.allclose(got, np.maximum(values, 0.0), atol=fmt.resolution)
        assert stats["and_gates"] > 0 and stats["ot_transfers"] > 0
