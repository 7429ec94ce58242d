"""Golden-number regression tests for the reproduced paper artifacts.

The Table 2 and Figure 4 campaigns are fully deterministic, so their
canonical spec/result JSON has a stable SHA-256 digest. Pinning the digest
(plus the key numbers, so a failure is debuggable) guards the whole
pipeline — generators, analysis, region sweeps, the campaign engine and
the aggregation layer — against silent numeric drift during refactors.

If a digest changes *intentionally* (e.g. a more accurate analysis),
update it here together with the numeric assertions and note the change
in CHANGES.md.
"""

import hashlib

import pytest

from repro.analysis import kernels
from repro.experiments import (
    compute_figure4_points,
    compute_table2,
    figure4_specs,
    table2_specs,
)
from repro.runner import points, run_campaign, stream_campaign


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


TABLE2_DIGEST = "73cf70c51053f8b29e61740fb4c435183e3efd37d5f30a0703fbd64d919bf67a"
FIGURE4_DIGEST = "dbc33d8f7f6b782383ba9b62064c6b8cd08f4228bbd08ab2aaa153b616283f2b"


class TestGoldenDigests:
    """The digests with the fast integer kernels on."""

    FAST_KERNELS = True

    @pytest.fixture(autouse=True)
    def _kernel_setting(self):
        # The paper-partition regions are cached per process; drop them so
        # each setting builds (and is checked on) its own.
        points._paper_region.cache_clear()
        with kernels.kernels_forced(self.FAST_KERNELS):
            yield
        points._paper_region.cache_clear()

    def test_table2_campaign_digest(self):
        text = run_campaign(table2_specs(), workers=1, master_seed=0).to_json()
        assert digest(text) == TABLE2_DIGEST

    def test_figure4_campaign_digest(self):
        text = run_campaign(figure4_specs(), workers=1, master_seed=0).to_json()
        assert digest(text) == FIGURE4_DIGEST

    def test_streamed_campaign_matches_digest(self):
        """The streaming path must produce the very same canonical bytes."""
        from repro.experiments import table2_aggregator

        streamed = stream_campaign(
            table2_specs(), table2_aggregator(), workers=1, master_seed=0,
            collect=True,
        )
        assert digest(streamed.to_json()) == TABLE2_DIGEST

    def test_batched_campaign_matches_digest(self):
        """Batched execution (batch size not dividing the point count)
        produces the very same canonical bytes as the per-point engine."""
        text = run_campaign(
            figure4_specs(), workers=1, master_seed=0, batch_size=2
        ).to_json()
        assert digest(text) == FIGURE4_DIGEST


class TestGoldenDigestsFloatFallback(TestGoldenDigests):
    """The same digests with the kernels off: the float fallback, RM included."""

    FAST_KERNELS = False


class TestGoldenNumbers:
    """Exact values behind the digests — the first place to look on drift."""

    def test_table2_rows(self):
        t2 = compute_table2()
        assert t2.req_util_ft == pytest.approx(0.26666666666666666, abs=1e-12)
        assert t2.row_b.period == pytest.approx(2.966359535833205, abs=1e-9)
        assert t2.row_c.period == pytest.approx(0.8553805745498005, abs=1e-9)

    def test_figure4_points(self):
        f4 = compute_figure4_points()
        assert f4.point1_max_period_edf == pytest.approx(3.176658718325561, abs=1e-9)
        assert f4.point2_max_period_rm == pytest.approx(2.381307450332394, abs=1e-9)
        assert f4.point3_max_overhead_edf == pytest.approx(0.20069852698559787, abs=1e-9)
        assert f4.point4_max_overhead_rm == pytest.approx(0.12855240424952674, abs=1e-9)
        assert f4.point5_max_period_edf_otot == pytest.approx(2.9663595360715638, abs=1e-9)
