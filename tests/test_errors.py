from crowdselect.errors import TimeBudgetError


def test_time_budget_message_keeps_sub_second_budgets():
    error = TimeBudgetError(0.05, 0.0523)
    assert str(error) == "exceeded time budget of 0.05s after 0.0523s"
    assert (error.budget_s, error.elapsed_s) == (0.05, 0.0523)


def test_time_budget_message_for_long_budgets():
    assert str(TimeBudgetError(3600, 3601.25)) == "exceeded time budget of 3600s after 3601.25s"
