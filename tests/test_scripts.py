import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the options each script requires besides --ks; argparse checks --ks before running anything
REQUIRED = {
    "toy_experiment": [],
    "full_pipeline": ["--pairs", "p.tsv", "--corpus", "c.txt", "--out-dir", "out"],
}


@pytest.mark.parametrize("script", sorted(REQUIRED))
@pytest.mark.parametrize("ks,message", [("x", "must be an integer"), ("0", "must be >= 1")])
def test_bad_ks_exit_2(script, ks, message, capsys):
    main = load_script(script).main
    with pytest.raises(SystemExit) as exc:
        main([*REQUIRED[script], "--ks", ks])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
