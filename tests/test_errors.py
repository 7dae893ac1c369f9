import ast
from pathlib import Path

import crowdselect
from crowdselect.errors import TimeBudgetError


def test_time_budget_message_keeps_sub_second_budgets():
    error = TimeBudgetError(0.05, 0.0523)
    assert str(error) == "exceeded time budget of 0.05s after 0.0523s"
    assert (error.budget_s, error.elapsed_s) == (0.05, 0.0523)


def test_time_budget_message_for_long_budgets():
    assert str(TimeBudgetError(3600, 3601.25)) == "exceeded time budget of 3600s after 3601.25s"


def test_no_assert_statements_in_the_package():
    # runtime invariants must be real checks: python -O strips assert statements
    package = Path(crowdselect.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
