import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import traced_peak
from _oracles import forward, loss_and_gradients_reference, select_action
from flowrl.qnet import (
    QNetwork,
    Workspace,
    apply_update,
    dueling_aggregate,
    forward_batch,
    freeze_input,
    init_optimizer,
    loss_and_gradients,
    param_views,
    select_actions,
)

GRID = 2.0**-24  # binary grid on which float additions of a shared offset are exact


def quantize(x):
    return np.round(np.asarray(x) / GRID) * GRID


def small_net(seed=0, input_dim=7, hidden=8, dueling=True):
    return QNetwork.initialize(input_dim, hidden=hidden, seed=seed, dueling=dueling)


def named(net, flat):
    """Views of a flat vector laid out like net.theta, by parameter name."""
    return param_views(flat, net.input_dim, net.hidden_dim)


class TestLayout:
    def test_parameters_are_views_into_theta(self):
        net = small_net(30)
        assert net.theta.dtype == np.float64 and net.theta.ndim == 1
        views = named(net, net.theta)
        assert sum(v.size for v in views.values()) == net.theta.size
        for name, view in views.items():
            assert np.shares_memory(getattr(net, name), net.theta), name
            np.testing.assert_array_equal(getattr(net, name), view)
        net.theta[:] = 0.0
        assert not net.w1.any() and not net.ba.any()

    def test_copy_owns_a_new_vector(self):
        net = small_net(31)
        twin = net.copy()
        assert not np.shares_memory(twin.theta, net.theta)
        np.testing.assert_array_equal(twin.theta, net.theta)
        for name in named(net, net.theta):
            assert np.shares_memory(getattr(twin, name), twin.theta), name
        twin.w2[0, 0] += 1.0
        assert twin.theta[net.theta != twin.theta].size == 1

    def test_size_at_default_dimensions(self):
        net = QNetwork.initialize(73, hidden=64)
        opt = init_optimizer(net)
        assert net.theta.shape == opt.m.shape == opt.v.shape == (9286,)

    def test_from_params_checks_every_shape_against_w1(self):
        net = small_net(32)
        params = named(net, net.theta)
        params["b2"] = params["b2"][:-1]
        with pytest.raises(ValueError, match=r"b2 has shape \(7,\), expected \(8,\)"):
            QNetwork.from_params(params)
        params["w1"] = np.zeros(8)
        with pytest.raises(ValueError, match="w1 has shape"):
            QNetwork.from_params(params)


class TestForward:
    def test_zero_advantage_head_gives_value(self):
        net = small_net(1)
        net.wa[:] = 0.0
        net.ba[:] = 0.0
        q = forward(net, np.ones(7))
        assert np.all(q == q[0])

    def test_constant_advantage_offset_cancels(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.standard_normal()
            adv = quantize(rng.standard_normal(5))
            c = quantize(rng.uniform(-4, 4))
            q1 = dueling_aggregate(v, adv)
            q2 = dueling_aggregate(v, adv + c)
            np.testing.assert_array_equal(q1, q2)

    def test_constant_offset_close_for_generic_floats(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.standard_normal()
            adv = rng.standard_normal(5)
            c = rng.uniform(-10, 10)
            np.testing.assert_allclose(
                dueling_aggregate(v, adv), dueling_aggregate(v, adv + c), rtol=0, atol=1e-12
            )

    def test_single_hidden_unit_hand_computation(self):
        net = QNetwork.from_params(dict(
            w1=np.array([[1.0, -1.0]]),
            b1=np.array([0.5]),
            w2=np.array([[2.0]]),
            b2=np.array([-0.25]),
            wv=np.array([[1.0]]),
            bv=np.array([0.1]),
            wa=np.array([[0.1], [0.2], [0.3], [0.4], [0.5]]),
            ba=np.zeros(5),
        ))
        s = np.array([0.3, 0.1])
        # by hand: z1 = 0.3 - 0.1 + 0.5 = 0.7; h1 = 0.7
        # z2 = 2*0.7 - 0.25 = 1.15; h2 = 1.15
        # v = 1.15 + 0.1 = 1.25; adv = 1.15*[0.1..0.5]; mean(adv) = 0.345
        expected = 1.25 + 1.15 * np.array([0.1, 0.2, 0.3, 0.4, 0.5]) - 0.345
        np.testing.assert_allclose(forward(net, s), expected, atol=1e-12)

    def test_relu_gates_the_hidden_unit(self):
        net = QNetwork.from_params(dict(
            w1=np.array([[1.0, -1.0]]), b1=np.array([-5.0]),
            w2=np.array([[2.0]]), b2=np.array([0.0]),
            wv=np.array([[1.0]]), bv=np.array([0.25]),
            wa=np.ones((5, 1)), ba=np.zeros(5),
        ))
        # z1 = -4.8 -> h1 = 0 -> h2 = 0 -> v = 0.25, adv all 0
        np.testing.assert_allclose(forward(net, np.array([0.3, 0.1])), np.full(5, 0.25))

    def test_non_dueling_mode_uses_advantage_head_directly(self):
        net = small_net(4, dueling=False)
        s = np.random.default_rng(0).uniform(size=7)
        h1 = np.maximum(s @ net.w1.T + net.b1, 0)
        h2 = np.maximum(h1 @ net.w2.T + net.b2, 0)
        np.testing.assert_allclose(forward(net, s), h2 @ net.wa.T + net.ba, atol=1e-14)

    def test_dimension_mismatch_named(self):
        net = small_net(5)
        with pytest.raises(ValueError, match=r"\(7,\)"):
            forward(net, np.ones(9))
        with pytest.raises(ValueError, match="7"):
            forward_batch(net, np.ones((3, 9)))

    def test_forward_is_deterministic(self):
        net = small_net(6)
        s = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(forward(net, s), forward(net, s))


class TestSplitForward:
    """forward_batch(net, own, freeze_input(net, tail)) against the full forward."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dueling=st.booleans(), input_dim=st.integers(2, 20),
           hidden=st.integers(1, 16), n=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_matches_full_forward_at_any_split(self, data, dueling, input_dim, hidden, n, seed):
        split = data.draw(st.integers(1, input_dim - 1))
        rng = np.random.default_rng(seed)
        net = small_net(input_dim=input_dim, hidden=hidden, dueling=dueling)
        net.theta[:] = rng.standard_normal(net.theta.size)
        states = rng.uniform(-1, 1, (n, input_dim))
        full = forward_batch(net, states)
        frozen = freeze_input(net, states[:, split:])
        # relative to the row's largest |Q|: an entry that cancels to near zero
        # differs from the full forward by far more than 1e-12 of itself
        scale = np.abs(full).max(axis=1, keepdims=True)
        top2 = np.sort(full, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-9
        # the leading columns as a C-contiguous (n, split) array, and as the
        # .T view of a contiguous (split, n) block, as the rollout passes them
        for own in (np.ascontiguousarray(states[:, :split]),
                    np.ascontiguousarray(states[:, :split].T).T):
            split_q = forward_batch(net, own, frozen)
            assert split_q.shape == full.shape == (n, 5)
            assert np.all(np.abs(split_q - full) <= 1e-12 * scale)
            np.testing.assert_array_equal(np.argmax(split_q, axis=1)[clear],
                                          np.argmax(full, axis=1)[clear])

    def test_shapes_checked(self):
        net = small_net(42)
        for tail in (np.ones((3, 7)), np.ones((3, 0)), np.ones(4)):
            with pytest.raises(ValueError, match="frozen columns"):
                freeze_input(net, tail)
        frozen = freeze_input(net, np.ones((3, 4)))
        for own in (np.ones((3, 4)), np.ones((2, 3)), np.ones(3)):
            with pytest.raises(ValueError, match=r"leading state columns .* expected \(3, 3\)"):
                forward_batch(net, own, frozen)
        # the second layer's and the folded head's biases ride as last columns
        hidden = net.hidden_dim
        assert frozen.w2.shape == (hidden, hidden + 1) and frozen.head.shape == (5, hidden + 1)
        np.testing.assert_array_equal(frozen.w2[:, :-1], net.w2)
        np.testing.assert_array_equal(frozen.w2[:, -1], net.b2)
        assert net.dueling
        np.testing.assert_array_equal(frozen.head[:, -1], net.ba + net.bv - net.ba.mean())


def fd_gradient(net, states, actions, targets, name, index, h=1e-5):
    """Central finite difference of the loss w.r.t. one parameter entry."""
    p = getattr(net, name)
    orig = p[index]
    p[index] = orig + h
    up, _ = loss_and_gradients(net, states, actions, targets)
    p[index] = orig - h
    down, _ = loss_and_gradients(net, states, actions, targets)
    p[index] = orig
    return (up - down) / (2 * h)


def sample_away_from_kinks(net, rng, margin=1e-4):
    """Random input whose hidden pre-activations avoid the rectifier kink,
    where the finite-difference oracle itself is invalid."""
    for _ in range(200):
        s = rng.uniform(-1, 1, net.input_dim)
        z1 = net.w1 @ s + net.b1
        h1 = np.maximum(z1, 0)
        z2 = net.w2 @ h1 + net.b2
        if np.abs(z1).min() > margin and np.abs(z2).min() > margin:
            return s
    raise AssertionError("could not sample a kink-free input")


class TestGradients:
    def test_perfect_fit_zero_loss_and_gradients(self):
        net = small_net(7)
        rng = np.random.default_rng(0)
        states = rng.uniform(size=(6, 7))
        actions = rng.integers(0, 5, 6)
        targets = forward_batch(net, states)[np.arange(6), actions]
        loss, grad = loss_and_gradients(net, states, actions, targets)
        assert loss == 0.0
        assert grad.shape == net.theta.shape
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    @pytest.mark.parametrize("dueling", [True, False])
    def test_matches_central_finite_differences(self, dueling):
        rng = np.random.default_rng(11)
        for trial in range(5):
            net = small_net(seed=trial + 20, dueling=dueling)
            s = sample_away_from_kinks(net, rng)
            states = s[None, :]
            actions = np.array([int(rng.integers(0, 5))])
            targets = np.array([rng.uniform(-1, 1)])
            _, grad = loss_and_gradients(net, states, actions, targets)
            for name, g in named(net, grad).items():
                flat = g.ravel()
                for flat_i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                    idx = np.unravel_index(flat_i, g.shape)
                    fd = fd_gradient(net, states, actions, targets, name, idx)
                    denom = max(abs(fd), abs(flat[flat_i]), 1e-8)
                    assert abs(fd - flat[flat_i]) / denom < 1e-4, (name, idx)

    def test_duplicated_batch_leaves_loss_and_gradients_unchanged(self):
        net = small_net(8)
        rng = np.random.default_rng(1)
        states = rng.uniform(size=(5, 7))
        actions = rng.integers(0, 5, 5)
        targets = rng.uniform(size=5)
        l1, g1 = loss_and_gradients(net, states, actions, targets)
        l2, g2 = loss_and_gradients(
            net, np.tile(states, (2, 1)), np.tile(actions, 2), np.tile(targets, 2)
        )
        assert np.isclose(l1, l2, rtol=1e-12)
        np.testing.assert_allclose(g1, g2, rtol=1e-10, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(dueling=st.booleans(), input_dim=st.integers(1, 20), hidden=st.integers(1, 24),
           n=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_workspace_matches_fresh_arrays_bit_for_bit(self, dueling, input_dim, hidden, n, seed):
        """The forward and loss_and_gradients, run three times in one
        workspace first filled with NaN (each time over the previous call's
        contents), give the bytes of the same arithmetic on fresh arrays."""
        rng = np.random.default_rng(seed)
        net = small_net(input_dim=input_dim, hidden=hidden, dueling=dueling)
        work = Workspace(n, input_dim, hidden)
        work.block.fill(np.nan)
        for _ in range(3):
            net.theta[:] = rng.standard_normal(net.theta.size)
            states = rng.uniform(-1, 1, (n, input_dim))
            actions = rng.integers(0, 5, n)
            targets = rng.uniform(-1, 1, n)
            q, loss, grad = loss_and_gradients_reference(net, states, actions, targets)
            assert forward_batch(net, states, work=work).tobytes() == q.tobytes()
            got_loss, got_grad = loss_and_gradients(net, states, actions, targets, work)
            assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
            assert got_grad.tobytes() == grad.tobytes()
            assert np.shares_memory(got_grad, work.block)

    def test_empty_batch_rejected(self):
        net = small_net(9)
        with pytest.raises(ValueError, match="empty"):
            loss_and_gradients(net, np.zeros((0, 7)), np.zeros(0, dtype=int), np.zeros(0))

    def test_nonfinite_target_rejected(self):
        net = small_net(9)
        with pytest.raises(ValueError, match="finite"):
            loss_and_gradients(net, np.zeros((1, 7)), np.array([0]), np.array([np.nan]))


def reference_update(params, grads, m, v, step, method, lr=0.001, beta1=0.9, beta2=0.999,
                     eps=1e-8):
    """The per-array optimizer step, one parameter at a time: the oracle
    for the flat whole-vector step."""
    if method == "sgd":
        for name, p in params.items():
            p -= lr * grads[name]
        return
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


class TestOptimizer:
    @pytest.mark.parametrize("method", ["adam", "sgd"])
    @pytest.mark.parametrize("dueling", [True, False])
    def test_flat_step_equals_per_array_reference(self, method, dueling):
        rng = np.random.default_rng(40)
        net = QNetwork.initialize(73, hidden=64, seed=3, dueling=dueling)
        opt = init_optimizer(net, learning_rate=0.001, method=method)
        ref = {k: p.copy() for k, p in named(net, net.theta).items()}
        ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
        ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
        for step in range(1, 151):
            states = rng.uniform(0, 1, (32, 73))
            actions = rng.integers(0, 5, 32)
            targets = rng.uniform(0, 1, 32)
            _, grad = loss_and_gradients(net, states, actions, targets)
            apply_update(net, grad, opt)
            reference_update(ref, named(net, grad), ref_m, ref_v, step, method)
        assert opt.step == 150
        for name, p in named(net, net.theta).items():
            np.testing.assert_array_equal(p, ref[name], err_msg=name)
            np.testing.assert_array_equal(named(net, opt.m)[name], ref_m[name], err_msg=name)
            np.testing.assert_array_equal(named(net, opt.v)[name], ref_v[name], err_msg=name)
        assert not np.array_equal(net.theta, QNetwork.initialize(73, 64, 3, dueling).theta)

    def test_zero_gradients_leave_parameters_unchanged(self):
        net = small_net(10)
        before = net.theta.copy()
        opt = init_optimizer(net)
        apply_update(net, np.zeros_like(net.theta), opt)
        np.testing.assert_array_equal(net.theta, before)
        assert opt.step == 1

    @pytest.mark.parametrize("method", ["adam", "sgd"])
    def test_step_reduces_quadratic_loss(self, method):
        net = small_net(11)
        target = net.w1 + 1.0

        def quad_loss():
            return float(np.sum((net.w1 - target) ** 2))

        opt = init_optimizer(net, learning_rate=0.01, method=method)
        before = quad_loss()
        grad = np.zeros_like(net.theta)
        named(net, grad)["w1"][...] = 2.0 * (net.w1 - target)
        apply_update(net, grad, opt)
        assert quad_loss() < before

    def test_identical_updates_are_deterministic(self):
        a, b = small_net(12), small_net(12)
        opt_a, opt_b = init_optimizer(a), init_optimizer(b)
        grad = np.full_like(a.theta, 0.01)
        for _ in range(3):
            apply_update(a, grad, opt_a)
            apply_update(b, grad, opt_b)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_shape_mismatch_rejected(self):
        net = small_net(13)
        opt = init_optimizer(net)
        for bad in (np.zeros(net.theta.size - 1), np.zeros((1, net.theta.size))):
            with pytest.raises(ValueError, match=r"gradient shape .* parameter vector shape"):
                apply_update(net, bad, opt)
        assert opt.step == 0

    def test_fixed_batch_converges_within_500_steps(self):
        rng = np.random.default_rng(5)
        states = rng.uniform(0, 1, (32, 25))
        actions = rng.integers(0, 5, 32)
        targets = rng.uniform(0, 1, 32)
        net = QNetwork.initialize(25, hidden=64, seed=1)
        opt = init_optimizer(net, learning_rate=0.001)
        loss = None
        for _ in range(500):
            loss, grads = loss_and_gradients(net, states, actions, targets)
            apply_update(net, grads, opt)
        assert loss < 1e-3


class TestSelectAction:
    def test_greedy_when_epsilon_zero(self):
        net = small_net(14)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.uniform(size=7)
            assert select_action(net, s, 0.0, rng) == int(np.argmax(forward(net, s)))

    def test_uniform_when_epsilon_one(self):
        net = small_net(15)
        rng = np.random.default_rng(123)
        s = np.ones(7)
        draws = np.array([select_action(net, s, 1.0, rng) for _ in range(50_000)])
        freqs = np.bincount(draws, minlength=5) / draws.size
        assert np.all(np.abs(freqs - 0.2) < 0.01)

    def test_ties_resolve_to_class_zero(self):
        net = small_net(16)
        net.wa[:] = 0.0
        net.ba[:] = 0.0
        net.wv[:] = 0.0
        net.bv[:] = 0.0
        rng = np.random.default_rng(1)
        assert select_action(net, np.ones(7), 0.0, rng) == 0

    def test_epsilon_out_of_range(self):
        net = small_net(17)
        with pytest.raises(ValueError):
            select_action(net, np.ones(7), 1.5, np.random.default_rng(0))

    def test_batched_greedy_matches_single(self):
        net = small_net(18)
        rng = np.random.default_rng(2)
        states = rng.uniform(size=(20, 7))
        batched = select_actions(net, [states], np.zeros(20), np.random.default_rng(0))
        singles = [select_action(net, s, 0.0, np.random.default_rng(0)) for s in states]
        np.testing.assert_array_equal(batched, singles)

    def test_rollout_block_holds_only_its_forward(self):
        """Acting on a block of 256 states allocates what the forward writes
        (274,432 bytes for a 73-64 net), not a training Workspace (926,528
        bytes). Adding a bias in place takes numpy an iteration buffer of
        8,192 floats."""
        net = QNetwork.initialize(73, hidden=64, seed=3)
        states = np.random.default_rng(3).uniform(size=(256, 73))
        eps = np.full(256, 0.1)
        forward = sum(a.nbytes for a in (np.empty((256, 64)), np.empty((256, 64)), np.empty((256, 1)),
                                         np.empty((256, 5))))
        actions, peak = traced_peak(lambda: select_actions(net, [states], eps, np.random.default_rng(0)))
        assert forward == 274_432 and peak <= forward + 65_536 + 16_384, peak
        np.testing.assert_array_equal(actions, select_actions(net, [states[:100], states[100:]], eps,
                                                              np.random.default_rng(0)))

