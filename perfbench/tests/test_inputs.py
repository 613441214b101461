"""The workload seed alone fixes every input the program receives."""

import pytest

import inputs


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = inputs.generate(name, 5)
    second = inputs.generate(name, 5)
    assert inputs.dataset_bytes(first) == inputs.dataset_bytes(second)
    assert inputs.config_overrides(name, first, 5) == inputs.config_overrides(
        name, second, 5)
    assert inputs.repair_payload(
        first, inputs.config_overrides(name, first, 5)) == inputs.repair_payload(
        second, inputs.config_overrides(name, second, 5))

    noisy = {(c.tid, c.attribute) for c in first.error_cells}
    assert inputs.feedback_cells(first, noisy, 5) == inputs.feedback_cells(
        second, noisy, 5)
    assert inputs.read_cells(noisy, 5, 20) == inputs.read_cells(noisy, 5, 20)


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_another_seed_gives_other_inputs(name):
    one, two = inputs.generate(name, 1), inputs.generate(name, 2)
    if inputs.WORKLOADS[name].dataset_seed is None:
        assert inputs.dataset_bytes(one) != inputs.dataset_bytes(two)
    else:
        assert inputs.dataset_bytes(one) == inputs.dataset_bytes(two)
    assert (inputs.config_overrides(name, one, 1)
            != inputs.config_overrides(name, two, 2))
    noisy = {(c.tid, c.attribute) for c in one.error_cells}
    assert inputs.feedback_cells(one, noisy, 1) != inputs.feedback_cells(
        one, noisy, 2)
    assert inputs.read_cells(noisy, 1, 20) != inputs.read_cells(noisy, 2, 20)


def test_schedules_follow_the_seed_and_never_repeat_a_cell():
    generated = inputs.generate("flights-feedback", 3)
    noisy = {(c.tid, c.attribute) for c in generated.error_cells}
    cells = inputs.feedback_cells(generated, noisy, 3)
    assert cells != inputs.feedback_cells(generated, noisy, 4)
    rounds = [inputs.feedback_round(cells, i) for i in range(12)]
    sent = [(t, a) for chunk in rounds for t, a, _v in chunk]
    assert len(sent) == len(set(sent)) == 12 * inputs.FEEDBACK_CELLS
    for tid, attr, value in cells[:20]:
        assert value == generated.clean.value(tid, attr)
        assert value != generated.dirty.value(tid, attr)


def test_feedback_is_drawn_only_from_noisy_cells():
    generated = inputs.generate("hospital-batch", 2)
    noisy = {(c.tid, c.attribute) for c in list(generated.error_cells)[:7]}
    cells = inputs.feedback_cells(generated, noisy, 2)
    assert {(t, a) for t, a, _v in cells} == noisy
    with pytest.raises(ValueError):
        inputs.feedback_round(cells, 1)
