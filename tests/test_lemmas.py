from mgslab.lemmas import run_lemma_suite


def test_suite_a12tilde_clean(a12tilde):
    report = run_lemma_suite(a12tilde, 8, mgs_budget=100_000)
    assert report.total_counterexamples == 0
    assert report.sub_or_quotient.examined > 0
    assert report.power_factorization.satisfied > 0
    assert report.square_substring_brick.satisfied > 0
    assert report.band_module_embedding.satisfied > 0
    assert report.extension_brick.satisfied > 0
    assert report.square_prefix_nonbrick.examined > 0
    # the square-prefix hypothesis is unsatisfiable over an acyclic quiver
    assert report.square_prefix_nonbrick.satisfied == 0
    assert report.dual_host_shaped.examined > 0
    assert report.extension_host_shaped_count.examined > 0
    assert not report.mgs_budget_exhausted
    assert report.band_square_cross_check.examined > 0


def test_suite_gentle5_clean(gentle5):
    report = run_lemma_suite(gentle5, 9, mgs_budget=50_000)
    assert report.total_counterexamples == 0
    for chk in (
        report.sub_or_quotient,
        report.power_factorization,
        report.square_substring_brick,
        report.band_module_embedding,
        report.square_prefix_nonbrick,
        report.extension_brick,
    ):
        assert chk.examined > 0
    assert report.band_module_embedding.mode == "sampled"


def test_suite_vacuous_on_a2(a2):
    report = run_lemma_suite(a2, 6, mgs_budget=10_000)
    assert report.total_counterexamples == 0
    assert any("no bands" in n for n in report.notes)
    assert report.sub_or_quotient.examined == 0


def test_suite_payload_shape(a2):
    payload = run_lemma_suite(a2, 4, mgs_budget=10_000).payload()
    for key in (
        "maximal_substring_sub_or_quotient",
        "square_string_power_factorization",
        "band_square_substring_brick",
        "band_module_embedding",
        "square_prefix_nonbrick",
        "band_extension_brick",
        "dual_host_substring_shaped",
        "extension_host_shaped",
        "band_square_cross_check_summary",
    ):
        assert key in payload
        assert set(payload[key]) >= {"examined", "satisfied", "counterexamples"}


def test_short_band_bound_reports_no_missing_root(a12tilde):
    # every band root, a rotation of a b2- b1- or of its inverse, has length
    # 3: a band bound of 2 leaves it out of the pool, which is no
    # counterexample to the power factorization
    report = run_lemma_suite(a12tilde, 8, band_bound=2, mgs_budget=100_000)
    assert report.total_counterexamples == 0
    chk = report.power_factorization
    assert (chk.examined, chk.satisfied) == (6, 6)
