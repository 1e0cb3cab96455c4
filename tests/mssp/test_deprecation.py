"""Runtime names that stay valid now the 'parallel' alias is retired."""

from repro.config import MsspConfig
from repro.mssp.runtime.executors import resolve_runtime


class TestResolveRuntime:
    def test_sim_is_a_first_class_runtime(self):
        assert resolve_runtime("sim") == "sim"

    def test_config_accepts_sim(self):
        assert MsspConfig(runtime="sim").runtime == "sim"
