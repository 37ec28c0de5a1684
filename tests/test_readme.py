"""The README's examples run as written: the library quickstart executes,
and the example `bench.cfg` parses through `bench.load_config`."""

import re
from pathlib import Path

from svshrink import bench

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language: str) -> list:
    """The bodies of the README's code blocks fenced as ```language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_library_quickstart_runs(capsys):
    (quickstart,) = fenced("python")
    namespace = {}
    exec(compile(quickstart, "README.md", "exec"), namespace)
    assert namespace["Xhat"].shape == namespace["Y"].shape
    assert capsys.readouterr().out.count("\n") == 2


def test_example_config_parses(tmp_path):
    (config,) = fenced("ini")
    path = tmp_path / "bench.cfg"
    path.write_text(config)
    job = bench.load_config(path, seed=11)
    assert job.run == "sweep"
    assert (job.grid.n, job.grid.m, job.grid.trials) == (50, 50, 10)
    assert job.grid.ranks == tuple(range(1, 51))
    assert job.grid.snrs == (0.5, 1.0, 2.0, 4.0)
    assert [spec.label for spec in job.grid.methods] == ["svlet(C=10,K=2)", "svst-sure", "opt-shrink", "eym-oracle"]
