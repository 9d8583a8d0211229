"""Worker-count resolution shared by the DSE, lint and service pools."""

import pytest

from repro.common.errors import ConfigError
from repro.common.parallel import JOBS_ENV_VAR, resolve_jobs


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(2) == 2

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3

    @pytest.mark.parametrize("bad", ["zero", "1.5", ""])
    def test_malformed_environment_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(JOBS_ENV_VAR, bad)
        if bad == "":
            assert resolve_jobs(None) == 1  # unset-equivalent
        else:
            with pytest.raises(ConfigError):
                resolve_jobs(None)

    @pytest.mark.parametrize("bad", [0, -4])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ConfigError):
            resolve_jobs(bad)
