import dataclasses

import numpy as np
import pytest

from grayfuzz.fuzzy import (
    FuzzyPartition,
    RuleBase,
    RuleCandidates,
    build_partition,
    combine,
    generate_rules,
)

import oracles
from oracles import DefuzzResult, FuzzyOutput, defuzzify, infer


def random_partition(rng, max_anchors=3, min_regions=2):
    anchors = sorted(rng.uniform(5, 250, size=int(rng.integers(1, max_anchors + 1))))
    return build_partition(anchors, min_regions=min_regions)


def candidates(*rows):
    """RuleCandidates from (antecedent, consequent, degree) rows."""
    antecedents, consequents, degrees = zip(*rows)
    return RuleCandidates(antecedents=antecedents, consequents=consequents, degrees=degrees)


def learn(pairs, in_parts, out_part):
    """Rule base learned from ((inputs...), output) pairs."""
    inputs = [xs for xs, _ in pairs]
    outputs = [y for _, y in pairs]
    return combine(generate_rules(inputs, outputs, in_parts, out_part), in_parts, out_part)


class TestBuildPartition:
    def test_single_anchor(self):
        part = build_partition([128], min_regions=3)
        assert part.region_count == 3
        assert part.peaks == (0.0, 128.0, 255.0)
        assert float(part.evaluate(1, 128.0)) == 1.0

    def test_clustering_example(self):
        part = build_partition([100, 101, 200], min_regions=2)
        assert part.peaks == (0.0, 100.5, 200.0, 255.0)
        assert part.region_count == 4

    def test_min_regions_subdivision(self):
        part = build_partition([128], min_regions=4)
        # widest gap [0, 128] splits at its midpoint
        assert part.peaks == (0.0, 64.0, 128.0, 255.0)

    def test_empty_anchors_rejected(self):
        with pytest.raises(ValueError):
            build_partition([], min_regions=3)

    @pytest.mark.parametrize("min_regions", [2.5, 3.0])
    def test_non_integer_min_regions_rejected(self, min_regions):
        with pytest.raises(ValueError):
            build_partition([100.0], min_regions=min_regions)

    @pytest.mark.parametrize(
        "anchors", [[float("nan")], [True, 100.0], ["100"]], ids=["nan", "bool", "str"]
    )
    def test_non_real_anchor_rejected(self, anchors):
        # NaN must not be dropped without a word, nor True anchor a region at 1.0
        with pytest.raises(ValueError):
            build_partition(anchors)

    def test_edge_anchor_collapses_into_shoulder(self):
        part = build_partition([0.0, 128.0], min_regions=2)
        assert part.peaks == (0.0, 128.0, 255.0)

    def test_ruspini_property_random(self):
        rng = np.random.default_rng(42)
        levels = np.arange(256, dtype=np.float64)
        for _ in range(50):
            part = random_partition(rng, max_anchors=8, min_regions=int(rng.integers(2, 9)))
            total = part.memberships(levels).sum(axis=0)
            assert np.abs(total - 1.0).max() < 1e-9


class TestFuzzyPartition:
    @pytest.mark.parametrize(
        "peaks",
        [
            (0.0,),  # fewer than two regions
            (0.0, float("nan"), 255.0),  # non-finite
            (0.0, 100.0, 100.0, 255.0),  # not strictly increasing
            (50.0, 100.0, 255.0),  # first peak is not 0
            (0.0, 100.0),  # last peak is not 255
            (0, True, 255),  # a bool is not a peak at 1.0
            ("0", "128", "255"),  # strings are not numbers
            5,  # not a sequence of peaks
        ],
    )
    def test_invalid_peaks_rejected(self, peaks):
        with pytest.raises(ValueError):
            FuzzyPartition(peaks)

    def test_rule_base_json_without_domain_peaks_rejected(self):
        # peaks [50, 100] would otherwise grade x=10 at 1.0 through a shoulder;
        # peaks 5 is not a list at all
        for peaks in ("[50, 100]", "5"):
            text = (
                f'{{"schema": "grayfuzz.rulebase/1", "inputs": [{{"peaks": {peaks}}}],'
                ' "output": {"peaks": [0, 255]}, "rules": []}'
            )
            with pytest.raises(ValueError):
                RuleBase.from_json_text(text)


class TestMembership:
    def setup_method(self):
        self.part = build_partition([100, 200], min_regions=2)  # peaks 0,100,200,255

    def test_peak_is_one(self):
        assert float(self.part.evaluate(1, 100.0)) == 1.0

    def test_adjacent_peak_is_zero(self):
        assert float(self.part.evaluate(1, 200.0)) == 0.0
        assert float(self.part.evaluate(1, 0.0)) == 0.0

    def test_midway_is_half(self):
        assert float(self.part.evaluate(1, 150.0)) == pytest.approx(0.5)
        assert float(self.part.evaluate(2, 150.0)) == pytest.approx(0.5)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            float(self.part.evaluate(9, 10.0))

    @pytest.mark.parametrize("index", [1.5, 1.0, True])
    @pytest.mark.parametrize("call", ["evaluate", "spike_level"])
    def test_non_integer_index_rejected(self, call, index):
        args = (index, 100.0) if call == "evaluate" else (index,)
        with pytest.raises(IndexError):
            getattr(self.part, call)(*args)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            float(self.part.evaluate(0, 300.0))


class TestGenerateRules:
    def setup_method(self):
        self.part = build_partition([100, 200], min_regions=2)

    def test_degree_one_at_peaks(self):
        rules = generate_rules([[100.0, 200.0]], [100.0], (self.part, self.part), self.part)
        assert len(rules) == 1
        assert rules.antecedents[0].tolist() == [1, 2]
        assert rules.consequents[0] == 1
        assert rules.degrees[0] == 1.0

    def test_midway_degree_half(self):
        rules = generate_rules([[150.0]], [100.0], (self.part,), self.part)
        assert rules.degrees[0] == pytest.approx(0.5)

    def test_tie_goes_to_lower_region(self):
        # 150 and 227.5 sit midway between peaks 100/200 and 200/255
        rules = generate_rules([[150.0, 227.5]], [150.0], (self.part, self.part), self.part)
        assert rules.antecedents[0].tolist() == [1, 2]
        assert rules.consequents[0] == 1
        assert rules.degrees[0] == 0.125

    def test_one_rule_per_pair(self):
        rng = np.random.default_rng(3)
        pairs = [((float(rng.uniform(0, 255)),), float(rng.uniform(0, 255))) for _ in range(37)]
        inputs = [xs for xs, _ in pairs]
        outputs = [y for _, y in pairs]
        assert len(generate_rules(inputs, outputs, (self.part,), self.part)) == 37

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            generate_rules([[300.0]], [10.0], (self.part,), self.part)

    @pytest.mark.parametrize("x, y", [(float("nan"), 100.0), (100.0, float("inf"))])
    def test_non_finite_pair_rejected(self, x, y):
        with pytest.raises(ValueError):
            generate_rules([[x]], [y], (self.part,), self.part)


class TestCombine:
    def setup_method(self):
        self.part = build_partition([100, 200], min_regions=2)

    def test_max_degree_wins(self):
        rules = candidates(((1,), 2, 0.4), ((1,), 1, 0.9))
        base = combine(rules, (self.part,), self.part)
        assert base.rules[(1,)] == (1, 0.9)

    def test_disjoint_antecedents_survive(self):
        rules = candidates(((0,), 1, 0.5), ((1,), 2, 0.5))
        base = combine(rules, (self.part,), self.part)
        assert len(base) == 2

    def test_order_independent(self):
        rng = np.random.default_rng(5)
        rules = [
            (
                (int(rng.integers(0, 3)),),
                int(rng.integers(0, 3)),
                float(rng.choice([0.25, 0.5, 0.75])),
            )
            for _ in range(60)
        ]
        base_a = combine(candidates(*rules), (self.part,), self.part)
        shuffled = list(rules)
        rng.shuffle(shuffled)
        base_b = combine(candidates(*shuffled), (self.part,), self.part)
        assert base_a.rules == base_b.rules

    def test_tie_goes_to_lower_consequent(self):
        rules = candidates(((1,), 2, 0.5), ((1,), 1, 0.5))
        base = combine(rules, (self.part,), self.part)
        assert base.rules[(1,)] == (1, 0.5)

        # many cells, each with an equal-degree tie and a weaker lower consequent
        rng = np.random.default_rng(8)
        rows, expected = [], {}
        for cell in [(a, b) for a in range(4) for b in range(4)]:
            degree = float(rng.choice([0.25, 0.5, 1.0]))
            tied = rng.choice(4, size=int(rng.integers(2, 5)), replace=False).tolist()
            rows += [(cell, c, degree) for c in tied] + [(cell, 0, degree / 2)]
            expected[cell] = (min(tied), degree)
        rng.shuffle(rows)
        base = combine(candidates(*rows), (self.part, self.part), self.part)
        assert base.rules == expected

    @pytest.mark.parametrize(
        "antecedents, consequents",
        [([[1.7, 0.2]], [0]), ([[1, 0]], [0.9]), ([[True, False]], [0])],
        ids=["float-antecedent", "float-consequent", "bool-antecedent"],
    )
    def test_non_integer_regions_rejected(self, antecedents, consequents):
        # [[1.7, 0.2]] must not be truncated to [[1, 0]] and learned as a rule
        with pytest.raises(ValueError):
            RuleCandidates(antecedents=antecedents, consequents=consequents, degrees=[1.0])

    def test_nan_degree_never_wins(self):
        rules = candidates(((1,), 0, float("nan")), ((1,), 2, 0.5))
        assert combine(rules, (self.part,), self.part).rules == {(1,): (2, 0.5)}

    @pytest.mark.parametrize("consequent", [-1, 4])
    def test_consequent_outside_output_rejected(self, consequent):
        with pytest.raises(ValueError):
            combine(candidates(((1,), consequent, 0.5)), (self.part,), self.part)


class TestInfer:
    def setup_method(self):
        self.part = build_partition([100, 200], min_regions=2)

    def test_singleton_base_at_peaks(self):
        base = combine(candidates(((1,), 2, 1.0)), (self.part,), self.part)
        out = infer(base, (100.0,))
        expected = np.zeros(256)
        expected[200] = 1.0  # the consequent envelope: unit spike at the prototype
        assert np.array_equal(out.samples, expected)

    def test_zero_membership_everywhere(self):
        base = combine(candidates(((3,), 1, 1.0)), (self.part,), self.part)
        out = infer(base, (100.0,))  # region 3 peaks at 255; membership at 100 is 0
        assert not out.samples.any()

    def test_two_rules_pointwise_max(self):
        base = combine(
            candidates(((1,), 1, 1.0), ((2,), 2, 1.0)), (self.part,), self.part
        )
        out = infer(base, (150.0,))  # fires both at strength 0.5
        assert out.samples[100] == pytest.approx(0.5)
        assert out.samples[200] == pytest.approx(0.5)
        assert np.count_nonzero(out.samples) == 2

    def test_monotone_in_degree(self):
        for low, high in [(0.3, 0.6), (0.5, 0.9)]:
            base_low = combine(candidates(((1,), 1, low)), (self.part,), self.part)
            base_high = combine(candidates(((1,), 1, high)), (self.part,), self.part)
            for x in (80.0, 100.0, 130.0):
                assert np.all(
                    infer(base_high, (x,)).samples >= infer(base_low, (x,)).samples
                )

    def test_empty_base_rejected(self):
        base = RuleBase(rules={}, in_partitions=(self.part,), out_partition=self.part)
        with pytest.raises(ValueError):
            infer(base, (100.0,))


class TestDefuzzify:
    def test_spike(self):
        curve = np.zeros(256)
        curve[77] = 0.4
        assert defuzzify(FuzzyOutput(samples=curve)) == DefuzzResult(77, False)

    def test_equal_spikes_average(self):
        curve = np.zeros(256)
        curve[50] = 0.8
        curve[150] = 0.8
        assert defuzzify(FuzzyOutput(samples=curve)).level == 100

    def test_symmetric_triangle(self):
        levels = np.arange(256, dtype=np.float64)
        curve = np.clip(1.0 - np.abs(levels - 128.0) / 40.0, 0.0, 1.0)
        assert defuzzify(FuzzyOutput(samples=curve)).level == 128

    def test_all_zero_flags_no_rule(self):
        result = defuzzify(FuzzyOutput(samples=np.zeros(256)))
        assert result == DefuzzResult(0, True)


class TestWangMendelOracle:
    def test_small_datasets_match_bruteforce(self):
        rng = np.random.default_rng(777)
        for _ in range(10):
            in_parts = tuple(random_partition(rng) for _ in range(2))
            out_part = random_partition(rng)
            n = int(rng.integers(1, 60))
            pairs = [
                (
                    (float(rng.uniform(0, 255)), float(rng.uniform(0, 255))),
                    float(rng.uniform(0, 255)),
                )
                for _ in range(n)
            ]
            base = learn(pairs, in_parts, out_part)
            expected = oracles.wang_mendel_bruteforce(pairs, in_parts, out_part)
            assert base.rules == expected


class TestRuleBaseJson:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        in_parts = (random_partition(rng), random_partition(rng))
        out_part = random_partition(rng)
        pairs = [
            (
                (float(rng.uniform(0, 255)), float(rng.uniform(0, 255))),
                float(rng.uniform(0, 255)),
            )
            for _ in range(40)
        ]
        base = learn(pairs, in_parts, out_part)
        clone = RuleBase.from_json_text(base.to_json_text())
        assert clone.rules == base.rules
        assert [p.peaks for p in clone.in_partitions] == [p.peaks for p in base.in_partitions]
        assert clone.out_partition.peaks == base.out_partition.peaks

    def test_schema_checked(self):
        with pytest.raises(ValueError):
            RuleBase.from_json_text('{"schema": "other/9", "inputs": [], "output": {"peaks": []}, "rules": []}')
        # a payload that is not an object, inputs or rules that are not lists
        for text in (
            '[{"schema": "grayfuzz.rulebase/1"}]',
            '{"schema": "grayfuzz.rulebase/1", "inputs": 5, "output": {"peaks": [0, 255]}, "rules": []}',
            '{"schema": "grayfuzz.rulebase/1", "inputs": [], "output": {"peaks": [0, 255]}}',
            '{"schema": "grayfuzz.rulebase/1", "inputs": [], "output": {"peaks": [0, 255]}, "rules": 5}',
            '{"schema": "grayfuzz.rulebase/1", "inputs": [], "rules": []}',
        ):
            with pytest.raises(ValueError):
                RuleBase.from_json_text(text)

    @pytest.mark.parametrize(
        "rule",
        [
            '{"antecedent": [1], "consequent": 0, "degree": 0.5}',  # arity 1, two inputs
            '{"antecedent": [5, 0], "consequent": 0, "degree": 0.5}',  # region out of range
            '{"antecedent": [1, 0], "consequent": 9, "degree": 0.5}',  # consequent out of range
            '{"antecedent": [1, 0], "consequent": 0, "degree": 0.0}',  # degree not positive
            '{"antecedent": [1, 0], "consequent": 0, "degree": 1.5}',  # degree above one
            '{"antecedent": [true, 0], "consequent": 0, "degree": 0.5}',  # bool region
            '{"antecedent": [1.0, 0], "consequent": 0, "degree": 0.5}',  # float region
            '{"antecedent": [1, 0], "consequent": 1.7, "degree": 0.5}',  # float consequent
            '{"antecedent": [1, 0], "consequent": 0, "degree": "0.5"}',  # degree not a number
            '5',  # rule not an object
            '[[1, 0], 0, 0.5]',  # rule as a list
            '{"antecedent": [1, 0], "degree": 0.5}',  # no consequent
            '{"antecedent": [[1], 0], "consequent": 0, "degree": 0.5}',  # nested region
            '{"antecedent": [1, 0], "consequent": 0, "degree": 0.5},'
            ' {"antecedent": [1, 0], "consequent": 1, "degree": 0.9}',  # one antecedent twice
        ],
    )
    def test_invalid_rule_rejected(self, rule):
        two_regions = '{"peaks": [0, 255]}'
        text = (
            f'{{"schema": "grayfuzz.rulebase/1", "inputs": [{two_regions}, {two_regions}],'
            f' "output": {two_regions}, "rules": [{rule}]}}'
        )
        with pytest.raises(ValueError):
            RuleBase.from_json_text(text)


class TestRuleBaseChecks:
    two = FuzzyPartition((0.0, 255.0))

    @pytest.mark.parametrize(
        "rules",
        [
            {(1.0, 1): (1, 0.5)},
            {(True, 1): (1, 0.5)},
            {(1, 1): (1.0, 0.5)},
            {(1, 1): (1, True)},
            {(1, 1): (1, "0.5")},
            {(1, 1): (1, float("nan"))},
            {(1, 1): 1},
            [],
        ],
        ids=["float-region", "bool-region", "float-consequent", "bool-degree", "str-degree",
             "nan-degree", "bare-consequent", "rules-as-list"],
    )
    def test_rule_value_types_rejected(self, rules):
        with pytest.raises(ValueError):
            RuleBase(rules=rules, in_partitions=(self.two, self.two), out_partition=self.two)

    def test_partitions_must_be_fuzzy_partitions(self):
        with pytest.raises(ValueError):
            RuleBase(rules={}, in_partitions=((0.0, 255.0),), out_partition=self.two)

    def test_numpy_rules_stored_as_python_values(self):
        base = RuleBase(
            rules={(np.int64(1), np.int64(0)): (np.int64(1), np.float64(0.5))},
            in_partitions=(self.two, self.two),
            out_partition=self.two,
        )
        ((antecedent, (consequent, degree)),) = base.rules.items()
        assert [type(v) for v in (*antecedent, consequent, degree)] == [int, int, int, float]
        assert RuleBase.from_json_text(base.to_json_text()) == base

    def test_rules_read_only(self):
        base = RuleBase({(1, 1): (1, 0.5)}, (self.two, self.two), self.two)
        with pytest.raises(TypeError):
            base.rules[(0, 0)] = (0, 1.0)
        assert dict(base.rules) == {(1, 1): (1, 0.5)}

    def test_hash_by_value(self):
        a = RuleBase({(1, 1): (1, 0.5), (0, 1): (0, 1.0)}, (self.two, self.two), self.two)
        b = RuleBase({(0, 1): (0, 1.0), (1, 1): (1, 0.5)}, (self.two, self.two), self.two)
        assert a == b and hash(a) == hash(b)
        listed = RuleBase(dict(a.rules), [self.two, self.two], self.two)
        assert listed == a and hash(listed) == hash(a)
        assert hash(RuleBase.from_json_text(a.to_json_text())) == hash(a)
        assert dataclasses.replace(a) == a


class TestDefuzzRange:
    def test_inferred_level_within_consequent_prototypes(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            part = random_partition(rng, max_anchors=4, min_regions=3)
            pairs = [
                (
                    (float(rng.uniform(0, 255)),),
                    float(rng.uniform(0, 255)),
                )
                for _ in range(30)
            ]
            base = learn(pairs, (part,), part)
            spikes = [base.out_partition.spike_level(c) for c, _ in base.rules.values()]
            for x in rng.uniform(0, 255, size=5):
                result = defuzzify(infer(base, (float(x),)))
                if not result.no_rule_fired:
                    assert min(spikes) <= result.level <= max(spikes)
