import importlib.util
import pathlib

import numpy

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "bench_phases.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_phases", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHostBlock:
    def test_names_the_blas_build_and_kernel(self):
        host = load_tool().host()
        assert host["numpy"] == numpy.__version__
        for key in ("blas_build", "blas_kernel"):
            assert isinstance(host[key], str) and host[key]

    def test_a_library_without_the_symbols_reads_unavailable(self, monkeypatch):
        tool = load_tool()
        monkeypatch.setattr(tool.ctypes, "CDLL", lambda path: object())
        host = tool.host()
        assert (host["blas_build"], host["blas_kernel"]) == ("unavailable", "unavailable")
