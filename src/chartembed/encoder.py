"""Forward network from encoded chart inputs to the chart vector.

The rule ids, standing for the one-hot rule matrix, pass through three 1-d
convolution layers (kernel 3, same-length padding, batch normalization,
ReLU) and are flattened to a 128-dim structural feature; the semantic block
is flattened and concatenated; two fully connected layers (ReLU and dropout
between them) produce the final 540-dim embedding. Everything is float64
numpy.

Inference is a pure function of (inputs, params); training-mode forwards use
batch statistics, record a trace for the backward pass, and may update the
running batch-norm statistics.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grammar, semantics

CHECKPOINT_MAGIC = b"C2V1"
CHECKPOINT_FORMAT_VERSION = 1


class EncoderError(ValueError):
    """Raised for shape mismatches and non-finite parameters."""


class CheckpointError(ValueError):
    """Raised for unreadable, mismatched, or corrupt checkpoint files."""


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

    @property
    def semantic_shape(self) -> tuple[int, int]:
        return semantics.semantic_shape(self.semantic_mode)

    @property
    def token_dim(self) -> int:
        return self.semantic_shape[1]

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


@dataclass
class ConvBNParams:
    weight: np.ndarray  # (out, in, kernel)
    bias: np.ndarray  # (out,)
    gamma: np.ndarray  # (out,)
    beta: np.ndarray  # (out,)
    running_mean: np.ndarray  # (out,)
    running_var: np.ndarray  # (out,)


@dataclass
class DenseParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class EncoderParams:
    config: EncoderConfig
    conv: list[ConvBNParams]
    fc1: Optional[DenseParams]
    fc2: Optional[DenseParams]


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


_CONV_PARTS = ("weight", "bias", "gamma", "beta", "running_mean", "running_var")
_RUNNING_STATS = (".running_mean", ".running_var")


def _array_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every persisted array, in checkpoint order."""
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for i, (cin, cout) in enumerate(zip(config.conv_channels, config.conv_channels[1:]), start=1):
        shapes.append((f"conv{i}.weight", (cout, cin, config.kernel_size)))
        shapes += [(f"conv{i}.{part}", (cout,)) for part in _CONV_PARTS[1:]]
    if config.use_fc:
        shapes += [
            ("fc1.weight", (config.output_dim, config.fc1_in)),
            ("fc1.bias", (config.output_dim,)),
            ("fc2.weight", (config.output_dim, config.output_dim)),
            ("fc2.bias", (config.output_dim,)),
        ]
    return shapes


def _params_from_arrays(config: EncoderConfig, arrays: dict[str, np.ndarray]) -> EncoderParams:
    conv = [
        ConvBNParams(
            weight=arrays[f"conv{i}.weight"],
            bias=arrays[f"conv{i}.bias"],
            gamma=arrays[f"conv{i}.gamma"],
            beta=arrays[f"conv{i}.beta"],
            running_mean=arrays[f"conv{i}.running_mean"],
            running_var=arrays[f"conv{i}.running_var"],
        )
        for i in range(1, len(config.conv_channels))
    ]
    fc1 = DenseParams(arrays["fc1.weight"], arrays["fc1.bias"]) if config.use_fc else None
    fc2 = DenseParams(arrays["fc2.weight"], arrays["fc2.bias"]) if config.use_fc else None
    return EncoderParams(config=config, conv=conv, fc1=fc1, fc2=fc2)


def init_params(seed: int, config: EncoderConfig = EncoderConfig()) -> EncoderParams:
    """Fan-in-scaled uniform weight init; batch-norm at identity."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _array_shapes(config):
        if name.endswith(".weight"):
            bound = np.sqrt(6.0 / np.prod(shape[1:]))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith((".gamma", ".running_var")):
            arrays[name] = np.ones(shape)
        else:
            arrays[name] = np.zeros(shape)
    return _params_from_arrays(config, arrays)


def checkpoint_items(params: EncoderParams) -> list[tuple[str, np.ndarray]]:
    """All persisted arrays (trainable plus running statistics), in order."""
    items: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(params.conv, start=1):
        items += [(f"conv{i}.{part}", getattr(layer, part)) for part in _CONV_PARTS]
    for name, dense in (("fc1", params.fc1), ("fc2", params.fc2)):
        if dense is not None:
            items += [(f"{name}.weight", dense.weight), (f"{name}.bias", dense.bias)]
    return items


def trainable_items(params: EncoderParams) -> list[tuple[str, np.ndarray]]:
    """Trainable arrays in their fixed canonical order."""
    return [item for item in checkpoint_items(params) if not item[0].endswith(_RUNNING_STATS)]


def copy_params(params: EncoderParams) -> EncoderParams:
    return _params_from_arrays(
        params.config, {name: arr.copy() for name, arr in checkpoint_items(params)}
    )


def params_equal(a: EncoderParams, b: EncoderParams) -> bool:
    items_a, items_b = checkpoint_items(a), checkpoint_items(b)
    if a.config != b.config or len(items_a) != len(items_b):
        return False
    return all(
        na == nb and va.shape == vb.shape and np.array_equal(va, vb)
        for (na, va), (nb, vb) in zip(items_a, items_b)
    )


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
    for name, arr in trainable_items(params):
        if not np.all(np.isfinite(arr)):
            raise EncoderError(f"non-finite parameter detected in {name}")

    batch = rule_ids.shape[0]
    sem = np.zeros_like(sem_blocks) if cfg.zero_semantics else sem_blocks
    taps = _conv1_taps(rule_ids, cfg)
    conv_cols: list[np.ndarray] = []
    conv_xhat: list[np.ndarray] = []
    conv_invstd: list[np.ndarray] = []
    conv_relu_mask: list[np.ndarray] = []

    x = None
    for i, layer in enumerate(params.conv):
        if i == 0:
            table = _conv1_table(layer.weight)
            z = table.take(taps[0], axis=0)
            for row in taps[1:]:
                z += table.take(row, axis=0)
        else:
            cols = _im2col(x, batch, cfg.kernel_size)
            z = cols @ _conv_matrix(layer.weight)
            if train:
                conv_cols.append(cols)
        z += layer.bias
        if train:
            mean = np.einsum("ij->j", z) / z.shape[0]
            z -= mean
            var = np.einsum("ij,ij->j", z, z) / z.shape[0]
            if update_running_stats:
                n = z.shape[0]
                var_unbiased = var * n / (n - 1) if n > 1 else var
                layer.running_mean *= 1.0 - cfg.bn_momentum
                layer.running_mean += cfg.bn_momentum * mean
                layer.running_var *= 1.0 - cfg.bn_momentum
                layer.running_var += cfg.bn_momentum * var_unbiased
        else:
            z -= layer.running_mean
            var = layer.running_var
        invstd = 1.0 / np.sqrt(var + cfg.bn_eps)
        xhat = z
        xhat *= invstd
        x = xhat * layer.gamma
        x += layer.beta
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
        z1 = fused @ params.fc1.weight.T + params.fc1.bias
        gate = z1 > 0
        if train and cfg.dropout > 0.0:
            if dropout_rng is None:
                raise EncoderError("train-mode forward with dropout needs a generator")
            keep = dropout_rng.random(z1.shape) >= cfg.dropout
            gate = gate * (keep / (1.0 - cfg.dropout))
        a1 = z1 * gate
        out = a1 @ params.fc2.weight.T + params.fc2.bias

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


def backward_batch(trace: ForwardTrace, d_out: np.ndarray, params: EncoderParams) -> dict[str, np.ndarray]:
    """Exact gradients of a train-mode forward, given d(loss)/d(output).

    Returns a dict keyed like trainable_items. The batch-norm backward takes
    the full batch-statistics path (mean and variance both depend on the
    parameters upstream).
    """
    cfg = params.config
    if d_out.shape[0] != trace.batch_size:
        raise EncoderError("trace/gradient batch size mismatch")
    grads: dict[str, np.ndarray] = {}

    if cfg.use_fc:
        grads["fc2.weight"] = d_out.T @ trace.fc2_input
        grads["fc2.bias"] = d_out.sum(axis=0)
        d_z1 = (d_out @ params.fc2.weight) * trace.fc1_gate
        grads["fc1.weight"] = d_z1.T @ trace.fused
        grads["fc1.bias"] = d_z1.sum(axis=0)
        # Only the conv columns of fc1's input lead back to parameters.
        d_conv = d_z1 @ params.fc1.weight[:, : cfg.conv_flat_dim]
    else:
        d_conv = d_out[:, : cfg.conv_flat_dim]

    batch, length, k = trace.batch_size, cfg.sequence_length, cfg.kernel_size
    d_x = d_conv.reshape(batch, -1, length).transpose(0, 2, 1).reshape(batch * length, -1)

    for i in range(len(params.conv) - 1, -1, -1):
        layer = params.conv[i]
        cout, cin, _ = layer.weight.shape
        d_z = d_x * trace.conv_relu_mask[i]  # d(loss)/d(y), made d(loss)/d(z) below
        xhat = trace.conv_xhat[i]
        n = d_z.shape[0]
        d_gamma = np.einsum("ij,ij->j", d_z, xhat)
        d_beta = np.einsum("ij->j", d_z)
        grads[f"conv{i + 1}.gamma"] = d_gamma
        grads[f"conv{i + 1}.beta"] = d_beta
        # Batch-norm backward through the batch mean and variance.
        d_z -= d_beta / n
        d_z -= xhat * (d_gamma / n)
        d_z *= trace.conv_invstd[i] * layer.gamma
        grads[f"conv{i + 1}.bias"] = np.einsum("ij->j", d_z)
        if i == 0:
            # Scatter-add of d_z onto the table rows that conv1 gathered.
            taps = trace.conv1_taps.ravel()
            table = np.stack(
                [np.bincount(taps, np.tile(d_z[:, o], k), k * (cin + 1)) for o in range(cout)],
                axis=1,
            )
            grads["conv1.weight"] = np.ascontiguousarray(
                table.reshape(k, cin + 1, cout)[:, :cin].transpose(2, 1, 0)
            )
            break
        grads[f"conv{i + 1}.weight"] = np.ascontiguousarray(
            (d_z.T @ trace.conv_cols[i - 1]).reshape(cout, k, cin).transpose(0, 2, 1)
        )
        # The input gradient is a convolution of d_z with the tap-flipped weight.
        flipped = layer.weight[:, :, ::-1].transpose(1, 0, 2)
        d_x = _im2col(d_z, batch, k) @ _conv_matrix(flipped)
    return grads


def _config_to_dict(config: EncoderConfig) -> dict:
    return {
        "conv_channels": list(config.conv_channels),
        "kernel_size": config.kernel_size,
        "sequence_length": config.sequence_length,
        "semantic_slots": config.semantic_slots,
        "output_dim": config.output_dim,
        "dropout": config.dropout,
        "bn_momentum": config.bn_momentum,
        "bn_eps": config.bn_eps,
        "semantic_mode": config.semantic_mode,
        "use_locations": config.use_locations,
        "zero_schema": config.zero_schema,
        "zero_semantics": config.zero_semantics,
        "use_fc": config.use_fc,
    }


def _config_from_dict(obj: dict) -> EncoderConfig:
    try:
        return EncoderConfig(
            conv_channels=tuple(obj["conv_channels"]),
            kernel_size=obj["kernel_size"],
            sequence_length=obj["sequence_length"],
            semantic_slots=obj["semantic_slots"],
            output_dim=obj["output_dim"],
            dropout=obj["dropout"],
            bn_momentum=obj["bn_momentum"],
            bn_eps=obj["bn_eps"],
            semantic_mode=obj["semantic_mode"],
            use_locations=obj["use_locations"],
            zero_schema=obj["zero_schema"],
            zero_semantics=obj["zero_semantics"],
            use_fc=obj["use_fc"],
        )
    except (KeyError, TypeError, EncoderError) as exc:
        raise CheckpointError(f"invalid config block: {exc}") from exc


def save_checkpoint(
    params: EncoderParams,
    config: Optional[EncoderConfig] = None,
    path: str = "encoder.ckpt",
    extras: Optional[dict] = None,
) -> None:
    """Write params to a little-endian binary checkpoint (bit-exact)."""
    config = config or params.config
    if config != params.config:
        raise CheckpointError("config does not match the params being saved")
    header = json.dumps(
        {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": _config_to_dict(config),
            "extras": extras,
        },
        ensure_ascii=False,
    ).encode("utf-8")
    items = checkpoint_items(params)
    count = sum(arr.size for _, arr in items)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<Q", count))
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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

    shapes = _array_shapes(config)
    expected = sum(int(np.prod(shape)) for _, shape in shapes)
    if count != expected:
        raise CheckpointError(
            f"checkpoint shape mismatch: holds {count} values, config implies {expected}"
        )
    if len(payload) < 8 * expected:
        raise CheckpointError("truncated checkpoint: the file ends inside the payload")
    if len(payload) > 8 * expected:
        raise CheckpointError("checkpoint shape mismatch: bytes follow the payload")
    values = np.frombuffer(payload, dtype="<f8")
    offset = 0
    loaded: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        size = int(np.prod(shape))
        loaded[name] = values[offset : offset + size].reshape(shape).copy()
        offset += size
    return _params_from_arrays(config, loaded), config


def load_checkpoint_extras(path: str) -> Optional[dict]:
    """The extras block (training hyperparameters) stored in a checkpoint."""
    with open(path, "rb") as fh:
        return _read_header(fh).get("extras")
