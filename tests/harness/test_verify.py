"""The verification command: every paper claim, banded and checked."""

from repro.cli import main
from repro.harness.verify import CLAIMS, run_verification


class TestVerification:
    def test_all_claims_pass(self):
        report, ok = run_verification()
        assert ok, f"reproduction drifted out of band:\n{report}"

    def test_report_covers_every_figure(self):
        report, _ = run_verification()
        for figure in ("Fig. 3", "Fig. 4", "Fig. 5a", "Fig. 5b",
                       "Fig. 6", "Fig. 7", "Fig. 8"):
            assert figure in report

    def test_claim_bands_are_sane(self):
        for _figure, claim in CLAIMS:
            assert claim.low <= claim.high

    def test_cli_verify_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        assert "ALL CLAIMS REPRODUCED" in capsys.readouterr().out
