"""Bit-identity corpus: SHA-256 digests of small fixed runs, pinned per
numerical platform.

Each run trains k = h = 4 for 2 epochs on one of three datasets (the
MovieLens and generic JSONL inputs whose ``nhfm preprocess`` bytes
``test_encode`` pins, and a small ``kind=synthetic`` set) and digests the
trained ``params.flat``, Adam's ``m.flat`` and ``v.flat`` and the test
scores. The corpus also digests what ``nhfm gradcheck`` prints and the
``explain.txt`` that ``nhfm explain`` writes for the MovieLens run. A change
that moves one bit of any of them fails here; a change that moves bits on
purpose pins the digests this test prints.

GEMM bits depend on the OpenBLAS kernel numpy picks at run time, so the
digests are keyed on the numpy version, the OpenBLAS version and its core
name. On a key with no digests the test checks that two runs agree, and
names the key in a warning.
"""

import ctypes
import glob
import hashlib
import json
import os
import warnings

import numpy as np

from nhfm import cli
from nhfm import training as tr
from nhfm.model import ModelConfig
from test_encode import GENERIC_FIELDS, _generic_lines, _movielens_files

# (variant, optimizer, grad_clip_norm)
_RUNS = [(variant, optimizer, None) for variant in ("alpha", "beta", "full")
         for optimizer in ("adam", "sgd")] + [("full", "adam", 0.05)]


def platform_key() -> tuple[str, str, str]:
    """(numpy version, OpenBLAS version, OpenBLAS core name), read from the
    OpenBLAS numpy bundles; "unknown" where it cannot be read."""
    version = core = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"):
            getattr(lib, name).restype = ctypes.c_char_p
        # "OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH ..."
        version = ".".join(lib.scipy_openblas_get_config64_().split()[1].decode().split(".")[:3])
        core = lib.scipy_openblas_get_corename64_().decode()
    return np.__version__, version, core


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _datasets(root) -> dict:
    _movielens_files(root / "ml")
    (root / "events.jsonl").write_text(_generic_lines(), encoding="utf-8")
    sections = {
        "movielens": {"kind": "movielens", "t_max": 4, "movielens_dir": str(root / "ml")},
        # at the default ratios its validation split has no positive window
        "generic": {"kind": "generic", "t_max": 4, "path": str(root / "events.jsonl"),
                    "fields": GENERIC_FIELDS, "ratios": [0.5, 0.25, 0.25]},
        "synthetic": {"kind": "synthetic", "t_max": 5, "synth_seed": 3,
                      "synth": {"n_users": 24, "n_fields": 3, "vocab_size": 5,
                                "len_min": 3, "len_max": 7}},
    }
    out = {}
    for name, section in sections.items():
        (root / f"{name}.json").write_text(json.dumps({"dataset": section}))
        out[name] = cli.prepare_datasets(cli.RunConfig.load(str(root / f"{name}.json"), ()))
    return out


def _run(capsys, root) -> dict[str, str]:
    digests = {}
    for data, (train, valid, test) in _datasets(root).items():
        t_max = train.store.t_max
        for variant, optimizer, clip in _RUNS:
            config = ModelConfig(variant, 4, 4, (8, 1), t_max)
            result = tr.train(train, valid, config, tr.TrainConfig(
                optimizer=optimizer, learning_rate=0.02, batch_size=8, max_epochs=2,
                grad_clip_norm=clip))
            state = result.opt_state
            name = f"{data} {variant} {optimizer}" + ("" if clip is None else f" clip={clip}")
            digests[name] = " ".join([
                _sha(result.params.flat.tobytes()), _sha(state.m.flat.tobytes()),
                _sha(state.v.flat.tobytes()),
                _sha(tr.predict_scores(test, result.params, config).tobytes())])

    assert cli.main(["gradcheck"]) == 0
    digests["nhfm gradcheck"] = _sha(capsys.readouterr().out.encode())
    config = root / "explain.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "movielens", "t_max": 4, "movielens_dir": str(root / "ml")},
        "model": {"k": 4, "h": 4, "mlp_widths": [8, 1]},
        "train": {"learning_rate": 0.02, "batch_size": 8, "max_epochs": 2},
        "seeds": [1], "out_dir": str(root / "run")}))
    for command in ("preprocess", "train", "explain"):
        assert cli.main([command, "--config", str(config)]) == 0
    capsys.readouterr()
    digests["nhfm explain"] = _sha((root / "run" / "explain.txt").read_bytes())
    return digests


# run name -> params, m, v and test-score digests (each the first 16 hex
# digits of a SHA-256); the two commands -> the digest of their output
PINNED = {
    ("2.4.6", "0.3.31", "SkylakeX"): {
        "movielens alpha adam": "a4fb4a071fe57484 54cd0f4f36b71fce ca5400c7c59bfa55 f888858a758cb8fa",
        "movielens alpha sgd": "2a2019372dfd987c e3b0c44298fc1c14 e3b0c44298fc1c14 6d0e02cc8033b1f2",
        "movielens beta adam": "bbcfcd3b53fbcb33 ade15c8899c2f252 35315a23751b92c9 e4600bafed0bae10",
        "movielens beta sgd": "1e63af6b9b1116f1 e3b0c44298fc1c14 e3b0c44298fc1c14 6439ccd9250649db",
        "movielens full adam": "9c20630f2e0752a4 76cfc0caea5d6da3 285e5c10dead9bd0 d0230aba81409489",
        "movielens full sgd": "2907ede0cc157afa e3b0c44298fc1c14 e3b0c44298fc1c14 ec89bfbaf80fa49f",
        "movielens full adam clip=0.05": "74717e8a05d91d6f a6c1f07dc5338662 4e3a0f7ebcd59eca d52b2e6830efdc27",
        "generic alpha adam": "9ae18d3f43eccb9b de9054406a1a7f84 030160ff127ea1c4 aca6913ed31bf153",
        "generic alpha sgd": "1912277ead5da3fb e3b0c44298fc1c14 e3b0c44298fc1c14 dd25c941f383ac72",
        "generic beta adam": "254cc4387c6904b4 e78bcda7f03d827a 0000318672f0968c c1d1a22177154da8",
        "generic beta sgd": "53638e62ed5c1beb e3b0c44298fc1c14 e3b0c44298fc1c14 fea02afbb9014eea",
        "generic full adam": "e28992e07a38ebd4 a626b49a5e05fb64 ded51a5627360bab 67adad9e6f5a6ba0",
        "generic full sgd": "bf0056faaefeabfc e3b0c44298fc1c14 e3b0c44298fc1c14 326db901190047ad",
        "generic full adam clip=0.05": "fd068e4cca2f1e2d eecb230b2a3a2edb cad8041647532bab ffecc7493c4f2511",
        "synthetic alpha adam": "75b44ec366c2bbda 37b982c9efe73848 6dab9932e09987e2 2aa0219c7e9d82d5",
        "synthetic alpha sgd": "30aede53e1b89e94 e3b0c44298fc1c14 e3b0c44298fc1c14 091322f0aa3e7e92",
        "synthetic beta adam": "1acce4299f75b209 4dc9b22834f49eaf b2959de67f3fe191 4e034ef90d0f73c8",
        "synthetic beta sgd": "e77d7c9bf338c06a e3b0c44298fc1c14 e3b0c44298fc1c14 3be78795e6957917",
        "synthetic full adam": "af10edc85c8124c5 06530a46c8a0eda5 0837c9a5f47e9a0e 51790c559ca89370",
        "synthetic full sgd": "083f7f4604d55501 e3b0c44298fc1c14 e3b0c44298fc1c14 34411705316c051e",
        "synthetic full adam clip=0.05": "ef52d9ed5ffc0739 fc006ed301830e82 c5b8e4390683fe81 47519f6634a9c223",
        "nhfm gradcheck": "cbe54842f3668927",
        "nhfm explain": "a5e70a20d0b0d78b",
    },
}


def test_runs_match_the_pinned_digests(tmp_path, capsys):
    got = _run(capsys, tmp_path / "a")
    key = platform_key()
    if key not in PINNED:
        assert _run(capsys, tmp_path / "b") == got
        warnings.warn(f"no digests pinned for numpy, OpenBLAS, core = {key}; "
                      "two runs agreed")
        return
    lines = "".join(f"        {name!r}: {value!r},\n" for name, value in got.items())
    assert got == PINNED[key], f"digests moved; to pin them:\n    {key!r}: {{\n{lines}    }},"
