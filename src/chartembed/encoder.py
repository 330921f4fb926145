"""Forward network from encoded chart inputs to the chart vector.

The rule ids, standing for the one-hot rule matrix, pass through three 1-d
convolution layers (kernel 3, same-length padding, batch normalization,
ReLU) and are flattened to a 128-dim structural feature; the semantic block
is flattened and concatenated; two fully connected layers (ReLU and dropout
between them) produce the final 540-dim embedding. Everything is float64
numpy.

Every persisted value lives in one float64 vector in checkpoint order, the
trainable arrays first and the batch-norm running statistics last; each
array is a named view of it, and gradients cover the trainable prefix. The
conv layers have no bias: each feeds batch norm, which cancels it, so it
would get no gradient.

Inference is a pure function of (inputs, params); training-mode forwards use
batch statistics, record a trace for the backward pass, and may update the
running batch-norm statistics.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import grammar, semantics

CHECKPOINT_MAGIC = b"C2V2"
CHECKPOINT_FORMAT_VERSION = 2


class EncoderError(ValueError):
    """Raised for shape mismatches and non-finite parameters."""


class CheckpointError(ValueError):
    """Raised for unreadable, mismatched, or corrupt checkpoint files."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a value of each field annotation (a string under `from __future__
# import annotations`) must be, and the check.
_FIELD_TYPES = {
    "tuple[int, ...]": ("at least 2 positive ints", lambda v: isinstance(v, tuple)
                        and len(v) >= 2 and all(_is_int(c) and c > 0 for c in v)),
    "int": ("a positive int", lambda v: _is_int(v) and v > 0),
    "float": ("a finite number", lambda v: (_is_int(v) or isinstance(v, float))
              and abs(v) <= sys.float_info.max),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}


@dataclass(frozen=True)
class EncoderConfig:
    conv_channels: tuple[int, ...] = (60, 30, 15, 8)
    kernel_size: int = 3
    sequence_length: int = 16
    semantic_slots: int = 25
    output_dim: int = 540
    dropout: float = 0.1
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    semantic_mode: str = "interval-average"
    use_locations: bool = True
    zero_schema: bool = False
    zero_semantics: bool = False
    use_fc: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, check = _FIELD_TYPES[f.type]
            if not check(value):
                raise EncoderError(f"{f.name} must be {kind}, got {value!r}")
        if self.conv_channels[0] != grammar.RULE_COUNT:
            raise EncoderError(
                f"first conv layer must take {grammar.RULE_COUNT} input channels"
            )
        if self.sequence_length != grammar.MAX_SEQUENCE_LENGTH:
            raise EncoderError(
                f"sequence length must be {grammar.MAX_SEQUENCE_LENGTH}"
            )
        if self.semantic_slots != semantics.SEMANTIC_SLOTS:
            raise EncoderError(f"semantic slots must be {semantics.SEMANTIC_SLOTS}")
        if self.kernel_size % 2 != 1:
            raise EncoderError("kernel size must be odd for same-length padding")
        if self.semantic_mode not in semantics.SEMANTIC_MODES:
            raise EncoderError(f"unknown semantic mode {self.semantic_mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise EncoderError("dropout must lie in [0, 1)")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise EncoderError("bn_momentum must lie in [0, 1]")
        if self.bn_eps <= 0.0:
            raise EncoderError("bn_eps must be > 0")

    @property
    def semantic_shape(self) -> tuple[int, int]:
        return semantics.semantic_shape(self.semantic_mode)

    @property
    def conv_flat_dim(self) -> int:
        return self.sequence_length * self.conv_channels[-1]

    @property
    def fc1_in(self) -> int:
        rows, cols = self.semantic_shape
        return self.conv_flat_dim + rows * cols

    @property
    def embedding_dim(self) -> int:
        return self.output_dim if self.use_fc else self.fc1_in


class EncoderParams:
    """The encoder's parameters: one float64 vector holding every persisted
    value in checkpoint order, `trainable` (its trainable prefix), and a
    named view of each array in it.

    Writing through a view writes `values`; running statistics are updated
    in place there by train-mode forwards.
    """

    def __init__(self, config: EncoderConfig, values: np.ndarray):
        self.config = config
        self.values = values
        self.views = param_views(config, values)
        self.trainable = values[: trainable_count(config)]


@dataclass
class ForwardTrace:
    """Per-layer activations and batch statistics cached for backprop.

    Conv activations are channels-last: one row per (chart, position).
    """

    conv1_taps: np.ndarray  # (kernel, B*L) rows of conv1's lookup table
    conv_cols: list[np.ndarray]  # (B*L, kernel*Cin) im2col input of conv2, conv3, ...
    conv_xhat: list[np.ndarray]  # (B*L, Cout)
    conv_invstd: list[np.ndarray]  # (Cout,)
    conv_relu_mask: list[np.ndarray]  # (B*L, Cout)
    fused: np.ndarray  # (B, fc1_in)
    fc1_gate: Optional[np.ndarray]  # (B, out): ReLU mask times the dropout scale
    fc2_input: Optional[np.ndarray]
    batch_size: int


def _array_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every persisted array, in checkpoint order: the
    trainable arrays, then the running statistics."""
    layers = list(enumerate(zip(config.conv_channels, config.conv_channels[1:]), start=1))
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for i, (cin, cout) in layers:
        shapes.append((f"conv{i}.weight", (cout, cin, config.kernel_size)))
        shapes += [(f"conv{i}.gamma", (cout,)), (f"conv{i}.beta", (cout,))]
    if config.use_fc:
        shapes += [
            ("fc1.weight", (config.output_dim, config.fc1_in)),
            ("fc1.bias", (config.output_dim,)),
            ("fc2.weight", (config.output_dim, config.output_dim)),
            ("fc2.bias", (config.output_dim,)),
        ]
    for i, (_, cout) in layers:
        shapes += [(f"conv{i}.running_mean", (cout,)), (f"conv{i}.running_var", (cout,))]
    return shapes


def param_count(config: EncoderConfig) -> int:
    """Length of the parameter vector the config implies."""
    return sum(math.prod(shape) for _, shape in _array_shapes(config))


def trainable_count(config: EncoderConfig) -> int:
    """Length of the trainable prefix (all but the running statistics)."""
    return param_count(config) - 2 * sum(config.conv_channels[1:])


def param_views(config: EncoderConfig, values: np.ndarray) -> dict[str, np.ndarray]:
    """Named views of a parameter vector, in checkpoint order; a gradient,
    as long as the trainable prefix, gets views of the trainable arrays."""
    if values.shape not in ((param_count(config),), (trainable_count(config),)):
        raise EncoderError(
            f"vector has shape {values.shape}, config implies ({param_count(config)},) "
            f"parameters or ({trainable_count(config)},) gradients"
        )
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in _array_shapes(config):
        if offset == values.size:
            break
        size = math.prod(shape)
        views[name] = values[offset : offset + size].reshape(shape)
        offset += size
    return views


def init_params(seed: int, config: EncoderConfig = EncoderConfig()) -> EncoderParams:
    """Fan-in-scaled uniform weight init; batch-norm at identity."""
    rng = np.random.default_rng(seed)
    params = EncoderParams(config, np.zeros(param_count(config)))
    for name, view in params.views.items():
        if name.endswith(".weight"):
            bound = np.sqrt(6.0 / np.prod(view.shape[1:]))
            view[...] = rng.uniform(-bound, bound, size=view.shape)
        elif name.endswith((".gamma", ".running_var")):
            view[...] = 1.0
    return params


def trainable_items(params: EncoderParams) -> list[tuple[str, np.ndarray]]:
    """Views of the trainable arrays (all but the running statistics), in order."""
    return list(param_views(params.config, params.trainable).items())


def copy_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams(params.config, params.values.copy())


def params_equal(a: EncoderParams, b: EncoderParams) -> bool:
    return a.config == b.config and np.array_equal(a.values, b.values)


def _non_finite_array(params: EncoderParams) -> Optional[str]:
    """The name of the first array holding a NaN or an infinity, if any."""
    if np.isfinite(params.values).all():
        return None
    return next(name for name, view in params.views.items() if not np.isfinite(view).all())


def _conv_matrix(weight: np.ndarray) -> np.ndarray:
    """A (out, in, kernel) conv weight as the (kernel*in, out) im2col matrix."""
    cout, cin, k = weight.shape
    return weight.transpose(2, 1, 0).reshape(k * cin, cout)


def _conv1_taps(rule_ids: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """conv1's lookup-table rows: (kernel, B*L), one row per kernel tap.

    conv1 convolves the one-hot rule matrix, so tap j at position l selects
    column rule[l + j - pad] of the weight's tap-j slice. The table stacks
    the slices, each with one zero row appended; same-length padding,
    padding id -1 and a zeroed schema all select that zero row.
    """
    batch, length = rule_ids.shape
    k, n_rules = cfg.kernel_size, cfg.conv_channels[0]
    pad = k // 2
    ids = np.full((batch, length + 2 * pad), n_rules, dtype=np.intp)
    if not cfg.zero_schema:
        ids[:, pad : pad + length] = np.where(rule_ids < 0, n_rules, rule_ids)
    return np.stack([ids[:, j : j + length].ravel() + j * (n_rules + 1) for j in range(k)])


def _conv1_table(weight: np.ndarray) -> np.ndarray:
    """conv1's (kernel*(in+1), out) lookup table: the tap slices of its
    weight, each followed by a zero row."""
    cout, cin, k = weight.shape
    table = np.zeros((k, cin + 1, cout))
    table[:, :cin] = weight.transpose(2, 1, 0)
    return table.reshape(k * (cin + 1), cout)


def _tap_rows(length: int, k: int) -> list[tuple[slice, slice]]:
    """Per kernel tap of a same-length conv: (output positions, input positions)."""
    pad = k // 2
    return [
        (slice(max(0, pad - j), length - max(0, j - pad)),
         slice(max(0, j - pad), length - max(0, pad - j)))
        for j in range(k)
    ]


def _im2col(x: np.ndarray, batch: int, k: int) -> np.ndarray:
    """Channels-last (B*L, C) rows to same-padded (B*L, k*C) windows."""
    seq = x.reshape(batch, -1, x.shape[1])
    cols = np.zeros((batch, seq.shape[1], k, x.shape[1]))
    for j, (out_rows, in_rows) in enumerate(_tap_rows(seq.shape[1], k)):
        cols[:, out_rows, j] = seq[:, in_rows]
    return cols.reshape(x.shape[0], -1)


def forward_batch(
    rule_ids: np.ndarray,
    sem_blocks: np.ndarray,
    params: EncoderParams,
    train: bool = False,
    dropout_rng: Optional[np.random.Generator] = None,
    update_running_stats: bool = True,
) -> tuple[np.ndarray, Optional[ForwardTrace]]:
    """Embed a batch: rule_ids (B, 16) integer rule ids with -1 as padding,
    sem_blocks (B, rows, cols).

    The rule ids stand for the one-hot schema (B, 16, 60) that conv1
    convolves; conv1 is computed as a gather of its weight columns.
    Train mode normalizes with batch statistics, applies dropout (when a
    generator is supplied), and returns a ForwardTrace; it mutates only the
    running statistics, and only when update_running_stats is set. Inference
    uses running statistics, no dropout, and returns no trace.
    """
    cfg = params.config
    rule_ids = np.asarray(rule_ids)
    sem_blocks = np.asarray(sem_blocks, dtype=np.float64)
    if rule_ids.ndim != 2 or rule_ids.shape[1] != cfg.sequence_length:
        raise EncoderError(
            f"schema batch has shape {rule_ids.shape}, expected (B, {cfg.sequence_length}) rule ids"
        )
    if not np.issubdtype(rule_ids.dtype, np.integer):
        raise EncoderError(f"schema rule ids must be integers, not {rule_ids.dtype}")
    if rule_ids.size and (rule_ids.min() < -1 or rule_ids.max() >= cfg.conv_channels[0]):
        raise EncoderError(f"schema rule ids must lie in [-1, {cfg.conv_channels[0]})")
    if sem_blocks.ndim != 3 or sem_blocks.shape[1:] != cfg.semantic_shape:
        raise EncoderError(
            f"semantic batch has shape {sem_blocks.shape}, expected "
            f"(B, {cfg.semantic_shape[0]}, {cfg.semantic_shape[1]})"
        )
    bad = _non_finite_array(params)
    if bad is not None:
        raise EncoderError(f"non-finite parameter detected in {bad}")

    batch = rule_ids.shape[0]
    sem = np.zeros_like(sem_blocks) if cfg.zero_semantics else sem_blocks
    taps = _conv1_taps(rule_ids, cfg)
    conv_cols: list[np.ndarray] = []
    conv_xhat: list[np.ndarray] = []
    conv_invstd: list[np.ndarray] = []
    conv_relu_mask: list[np.ndarray] = []

    x = None
    for i in range(1, len(cfg.conv_channels)):
        weight, gamma, beta, running_mean, running_var = (
            params.views[f"conv{i}.{part}"]
            for part in ("weight", "gamma", "beta", "running_mean", "running_var")
        )
        if i == 1:
            table = _conv1_table(weight)
            z = table.take(taps[0], axis=0)
            for row in taps[1:]:
                z += table.take(row, axis=0)
        else:
            cols = _im2col(x, batch, cfg.kernel_size)
            z = cols @ _conv_matrix(weight)
            if train:
                conv_cols.append(cols)
        if train:
            mean = np.einsum("ij->j", z) / z.shape[0]
            z -= mean
            var = np.einsum("ij,ij->j", z, z) / z.shape[0]
            if update_running_stats:
                n = z.shape[0]
                var_unbiased = var * n / (n - 1) if n > 1 else var
                running_mean *= 1.0 - cfg.bn_momentum
                running_mean += cfg.bn_momentum * mean
                running_var *= 1.0 - cfg.bn_momentum
                running_var += cfg.bn_momentum * var_unbiased
        else:
            z -= running_mean
            var = running_var
        invstd = 1.0 / np.sqrt(var + cfg.bn_eps)
        xhat = z
        xhat *= invstd
        x = xhat * gamma
        x += beta
        mask = x > 0
        np.maximum(x, 0.0, out=x)
        if train:
            conv_xhat.append(xhat)
            conv_invstd.append(invstd)
            conv_relu_mask.append(mask)

    # fc1 reads the conv output channel-major, as (B, C, L) flattened.
    conv_out = x.reshape(batch, cfg.sequence_length, -1).transpose(0, 2, 1)
    fused = np.concatenate([conv_out.reshape(batch, -1), sem.reshape(batch, -1)], axis=1)

    out, gate, a1 = fused, None, None
    if cfg.use_fc:
        z1 = fused @ params.views["fc1.weight"].T + params.views["fc1.bias"]
        gate = z1 > 0
        if train and cfg.dropout > 0.0:
            if dropout_rng is None:
                raise EncoderError("train-mode forward with dropout needs a generator")
            keep = dropout_rng.random(z1.shape) >= cfg.dropout
            gate = gate * (keep / (1.0 - cfg.dropout))
        a1 = z1 * gate
        out = a1 @ params.views["fc2.weight"].T + params.views["fc2.bias"]

    if not train:
        return out, None
    trace = ForwardTrace(
        conv1_taps=taps,
        conv_cols=conv_cols,
        conv_xhat=conv_xhat,
        conv_invstd=conv_invstd,
        conv_relu_mask=conv_relu_mask,
        fused=fused,
        fc1_gate=gate,
        fc2_input=a1,
        batch_size=batch,
    )
    return out, trace


def forward(
    rule_ids: np.ndarray,
    sem_block: np.ndarray,
    params: EncoderParams,
    mode: str = "infer",
    dropout_rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, Optional[ForwardTrace]]:
    """Embed a single chart from its (16,) rule ids; mode is "infer" or "train"."""
    if mode not in ("infer", "train"):
        raise EncoderError(f"unknown mode {mode!r}")
    out, trace = forward_batch(
        np.asarray(rule_ids)[None], np.asarray(sem_block)[None], params,
        train=mode == "train", dropout_rng=dropout_rng,
    )
    return out[0], trace


def backward_batch(
    trace: ForwardTrace, d_out: np.ndarray, params: EncoderParams, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact gradients of a train-mode forward, given d(loss)/d(output).

    Writes `out` if given, else a new vector, laid out like
    params.trainable; every slot is overwritten. The batch-norm backward
    takes the full batch-statistics path (mean and variance depend on the
    parameters).
    """
    cfg = params.config
    if d_out.shape[0] != trace.batch_size:
        raise EncoderError("trace/gradient batch size mismatch")
    grad = np.zeros_like(params.trainable) if out is None else out
    g = param_views(cfg, grad)

    if cfg.use_fc:
        np.matmul(d_out.T, trace.fc2_input, out=g["fc2.weight"])
        g["fc2.bias"][...] = d_out.sum(axis=0)
        d_z1 = (d_out @ params.views["fc2.weight"]) * trace.fc1_gate
        np.matmul(d_z1.T, trace.fused, out=g["fc1.weight"])
        g["fc1.bias"][...] = d_z1.sum(axis=0)
        # Only the conv columns of fc1's input lead back to parameters.
        d_conv = d_z1 @ params.views["fc1.weight"][:, : cfg.conv_flat_dim]
    else:
        d_conv = d_out[:, : cfg.conv_flat_dim]

    batch, length, k = trace.batch_size, cfg.sequence_length, cfg.kernel_size
    d_x = d_conv.reshape(batch, -1, length).transpose(0, 2, 1).reshape(batch * length, -1)

    for i in range(len(cfg.conv_channels) - 2, -1, -1):
        layer = f"conv{i + 1}."
        weight = params.views[layer + "weight"]
        cout, cin, _ = weight.shape
        d_z = d_x * trace.conv_relu_mask[i]  # d(loss)/d(y), made d(loss)/d(z) below
        xhat = trace.conv_xhat[i]
        n = d_z.shape[0]
        d_gamma, d_beta = g[layer + "gamma"], g[layer + "beta"]
        d_gamma[...] = np.einsum("ij,ij->j", d_z, xhat)
        d_beta[...] = np.einsum("ij->j", d_z)
        # Batch-norm backward through the batch mean and variance.
        d_z -= d_beta / n
        d_z -= xhat * (d_gamma / n)
        d_z *= trace.conv_invstd[i] * params.views[layer + "gamma"]
        if i == 0:
            # Scatter-add of d_z onto the table rows that conv1 gathered.
            taps = trace.conv1_taps.ravel()
            table = np.stack(
                [np.bincount(taps, np.tile(d_z[:, o], k), k * (cin + 1)) for o in range(cout)],
                axis=1,
            )
            g["conv1.weight"][...] = table.reshape(k, cin + 1, cout)[:, :cin].transpose(2, 1, 0)
            break
        g[layer + "weight"][...] = (
            (d_z.T @ trace.conv_cols[i - 1]).reshape(cout, k, cin).transpose(0, 2, 1)
        )
        # The input gradient is a convolution of d_z with the tap-flipped weight.
        flipped = weight[:, :, ::-1].transpose(1, 0, 2)
        d_x = _im2col(d_z, batch, k) @ _conv_matrix(flipped)
    return grad


def _config_from_dict(obj) -> EncoderConfig:
    """The config of a checkpoint header; every field must be present."""
    if not isinstance(obj, dict):
        raise CheckpointError("invalid config block: expected an object")
    names = [f.name for f in fields(EncoderConfig)]
    for problem, keys in (
        ("missing", [name for name in names if name not in obj]),
        ("unknown", sorted(set(obj) - set(names))),
    ):
        if keys:
            raise CheckpointError(f"invalid config block: {problem} keys {keys}")
    channels = obj["conv_channels"]
    try:
        return EncoderConfig(
            **{**obj, "conv_channels": tuple(channels) if isinstance(channels, list) else channels}
        )
    except EncoderError as exc:
        raise CheckpointError(f"invalid config block: {exc}") from exc


def save_checkpoint(
    params: EncoderParams, path: str = "encoder.ckpt", extras: Optional[dict] = None
) -> None:
    """Write params to a little-endian binary checkpoint (bit-exact)."""
    header = json.dumps(
        {"format_version": CHECKPOINT_FORMAT_VERSION, "config": asdict(params.config),
         "extras": extras},
        ensure_ascii=False,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(
            CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
            + struct.pack("<Q", params.values.size)
        )
        fh.write(params.values.astype("<f8", copy=False))


def _read_exact(fh, size: int, part: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointError(f"truncated checkpoint: the file ends inside the {part}")
    return data


def _read_header(fh) -> dict:
    """Check the magic and read the JSON header of an open checkpoint."""
    magic = fh.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        if len(magic) < len(CHECKPOINT_MAGIC) and CHECKPOINT_MAGIC.startswith(magic):
            raise CheckpointError("truncated checkpoint: the file ends inside the magic")
        raise CheckpointError(
            f"checkpoint version mismatch: expected magic {CHECKPOINT_MAGIC!r}, "
            f"found {magic!r}"
        )
    (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
    try:
        header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"checkpoint version mismatch: format {version!r}")
    return header


def load_checkpoint(path: str) -> tuple[EncoderParams, EncoderConfig]:
    """Read a checkpoint back; inverse of save_checkpoint, bit-exactly."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        config = _config_from_dict(header.get("config"))
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "value count"))
        payload = fh.read()

    expected = param_count(config)
    if count != expected:
        raise CheckpointError(
            f"checkpoint shape mismatch: holds {count} values, config implies {expected}"
        )
    if len(payload) < 8 * expected:
        raise CheckpointError("truncated checkpoint: the file ends inside the payload")
    if len(payload) > 8 * expected:
        raise CheckpointError("checkpoint shape mismatch: bytes follow the payload")
    params = EncoderParams(config, np.frombuffer(payload, dtype="<f8").astype(np.float64))
    bad = _non_finite_array(params)
    if bad is not None:
        raise CheckpointError(f"corrupt checkpoint: non-finite value in {bad}")
    return params, config


def load_checkpoint_extras(path: str) -> Optional[dict]:
    """The extras block (training hyperparameters) stored in a checkpoint."""
    with open(path, "rb") as fh:
        return _read_header(fh).get("extras")
