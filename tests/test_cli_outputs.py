"""Every command's output, pinned by value at n=2000.

Each case runs one ``rivkit`` command in process from an empty directory, so
the paths it prints and writes are relative. It compares the exit code, the
sha256 of stdout and the sha256 of every file the command wrote with values
recorded when this module was written. A change that keeps every output
keeps these values; one that moves a reading, a record layout or a byte of
a written file breaks them. Digests are shortened to their first 16 hex
digits. The last test pins the bytes that ``sample_system`` draws for each
family.

Like the goldens, the values depend on the platform: ``systems.ar_path``
takes ``exp`` from numpy, whose SIMD code paths may round differently on
another CPU, so every ``arx`` and ``narx`` output may differ there.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from rivkit import SystemSpec, cli, nominal_model
from rivkit.systems import FAMILIES, sample_system

N = 2000
DRIFT = (0.15, 0.15)
GRID = ["--delta-min", "0", "--delta-max", "0.15", "--step", "0.15", "--seeds", "0,1",
        "--n", str(N)]
# "@name" stands for the input file of that name
ESTIMATE = ["estimate", "--data", "@data.csv", "--x-cols", "x1,x2", "--y-cols", "y"]
MONITOR = ["monitor", "--x-cols", "x1,x2", "--y-cols", "y", "--window-size", str(N)]

CASES = {
    **{f"synth-{family}": ["synth", family, "--n", str(N), "--seed", "3",
                           "--out", "sample.csv"] for family in FAMILIES},
    "estimate-fit": ESTIMATE + ["--fit", "linear"],
    "estimate-fit-rif": ESTIMATE + ["--fit", "linear", "--rif"],
    "estimate-table-csv": ESTIMATE + ["--predictions", "@data_pred.csv", "--rif",
                                      "--csv-out", "report.csv"],
    "monitor-fit": MONITOR + ["--data", "@stream.csv", "--fit", "linear",
                              "--window-stride", "500"],
    "monitor-table-rif": MONITOR + ["--data", "@stream.csv", "--predictions",
                                    "@stream_pred.csv", "--rif", "--window-stride", "1000"],
    "monitor-gaps": MONITOR + ["--data", "@gaps.csv", "--fit", "linear",
                               "--window-stride", "1000"],
    **{f"bench-{family}-H0": ["bench", family, "--truth", "H0", "--trials", "2",
                              "--n", str(N), "--seed", "4"] for family in FAMILIES},
    "bench-linear-H1": ["bench", "linear", "--delta", "0.15,0.15", "--truth", "H1",
                        "--trials", "2", "--n", str(N), "--seed", "4"],
    "sweep-riv": ["sweep", "linear", "--method", "riv", *GRID, "--out", "grid"],
    "sweep-mapc": ["sweep", "polynomial", "--method", "mapc", *GRID, "--out", "grid"],
    "sweep-rmse": ["sweep", "narx", "--method", "rmse", *GRID, "--out", "grid"],
}

# case: (exit code, stdout digest, {written file: digest})
EXPECTED = {
    "synth-linear": (0, "10d1e30af3256f0f", {"sample.csv": "e2bd6ea737cbe0a0"}),
    "synth-polynomial": (0, "af48fce89616612b", {"sample.csv": "de08f53b7d70c815"}),
    "synth-trigonometric": (0, "924e1533ac223593", {"sample.csv": "64d41ac3640d9ac6"}),
    "synth-mlp": (0, "30e00cda0fbb664e", {"sample.csv": "28b0f345fa4b9f77"}),
    "synth-arx": (0, "d429195c27e31f09", {"sample.csv": "7a481bb9349e4871"}),
    "synth-narx": (0, "7c4768ccc60a1c0a", {"sample.csv": "24d5215e9ce9f96e"}),
    "estimate-fit": (0, "37e764236030e357", {}),
    "estimate-fit-rif": (0, "01bff11dd4d61638", {}),
    "estimate-table-csv": (2, "8f0b8a8cca8455c7", {"report.csv": "417cf5cdb0c70481"}),
    "monitor-fit": (2, "77a5b3ac196f4c74", {}),
    "monitor-table-rif": (2, "5db3b482ccfc04c9", {}),
    "monitor-gaps": (2, "3aed5e321bd11c96", {}),
    "bench-linear-H0": (0, "bfed632c0104f0fe", {}),
    "bench-polynomial-H0": (0, "0d98bbd2a97ccdd5", {}),
    "bench-trigonometric-H0": (0, "7423ef2339f7d454", {}),
    "bench-mlp-H0": (0, "7b783ef5a537eb9d", {}),
    "bench-arx-H0": (0, "ec98cb82a64bbf00", {}),
    "bench-narx-H0": (0, "a3652e898c681448", {}),
    "bench-linear-H1": (0, "15b62b0389dc12ac", {}),
    "sweep-riv": (0, "c867dda41a1c14ee", {
        "grid/mean.csv": "47b9fe86a7bedac2",
        "grid/meta.json": "ba73afe9f4c6781e",
        "grid/std.csv": "2e1974f3aa322112",
    }),
    "sweep-mapc": (0, "c867dda41a1c14ee", {
        "grid/mean.csv": "f7f8c67c06ff4ea5",
        "grid/meta.json": "055c85d4b2986f06",
        "grid/std.csv": "d659eb9dd9778b80",
    }),
    "sweep-rmse": (0, "c867dda41a1c14ee", {
        "grid/mean.csv": "234d8ca012d980e9",
        "grid/meta.json": "24a58b2376d0cb73",
        "grid/std.csv": "1de4355d1a76231a",
    }),
}

SAMPLES = {
    "linear": "377aea648c3cbd0d",
    "polynomial": "e312bb63e55a247a",
    "trigonometric": "96ff3a8cdd4cf9af",
    "mlp": "ab3daf19065b40dd",
    "arx": "0dd2c97ae28bc44a",
    "narx": "e135f61843e6f5f2",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def write_rows(path: Path, header: str, rows: np.ndarray) -> None:
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A drifted sample, a stream that drifts half-way, the nominal
    predictions of each, and the stream with blank lines and a bad row."""
    root = tmp_path_factory.mktemp("inputs")
    spec = SystemSpec("linear", DRIFT, seed=1)
    data = sample_system(spec, N).data
    stream = np.vstack([sample_system(SystemSpec("linear", seed=2), N).data,
                        sample_system(SystemSpec("linear", DRIFT, seed=3), N).data])
    model = nominal_model(spec)
    for name, rows in (("data", data), ("stream", stream)):
        write_rows(root / f"{name}.csv", "x1,x2,y", rows)
        table = np.column_stack([rows[:, :2], model.predict(rows[:, :2])])
        write_rows(root / f"{name}_pred.csv", "x_1,x_2,yhat_1", table)
    lines = (root / "stream.csv").read_text().splitlines()
    lines[10:10] = ["", "  "]
    lines[1500:1500] = ["1,oops,2"]
    (root / "gaps.csv").write_text("\n".join(lines) + "\n")
    return root


def run_case(name: str, inputs: Path, capsys) -> tuple:
    argv = [str(inputs / arg[1:]) if arg.startswith("@") else arg for arg in CASES[name]]
    code = cli.main(argv)
    out = capsys.readouterr().out
    files = {path.relative_to(Path.cwd()).as_posix(): digest(path.read_bytes())
             for path in sorted(Path.cwd().rglob("*")) if path.is_file()}
    return code, digest(out.encode()), files


@pytest.mark.parametrize("name", list(CASES))
def test_command_output_is_unchanged(name, inputs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, inputs, capsys) == EXPECTED[name]


@pytest.mark.parametrize("family", FAMILIES)
def test_sample_system_bytes_are_unchanged(family):
    sample = sample_system(SystemSpec(family, DRIFT, seed=7), N)
    assert digest(sample.data.tobytes()) == SAMPLES[family]
