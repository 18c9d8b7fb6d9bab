"""Fixtures shared by several test modules."""

import pytest

# A HOME and an AWAY goal in one second, with quote groups scored 0-0, 0-1
# and 1-0 at that second.
SAME_SECOND_QUOTES = """\
match_id,timestamp_s,market,selection,back_decimal,lay_decimal,home_goals,away_goals
g1,600,MATCH_ODDS,HOME,2.5,2.54,0,0
g1,600,MATCH_ODDS,DRAW,3.1,3.2,0,0
g1,600,MATCH_ODDS,HOME,2.0,2.04,0,1
g1,600,MATCH_ODDS,DRAW,3.3,3.4,0,1
g1,600,MATCH_ODDS,HOME,1.5,1.54,1,0
g1,600,MATCH_ODDS,DRAW,4.0,4.2,1,0
"""

SAME_SECOND_EVENTS = """\
match_id,timestamp_s,team,event
g1,600,HOME,GOAL
g1,600,AWAY,GOAL
"""


@pytest.fixture()
def same_second_goals(tmp_path):
    """(quotes, events) files of two goals in one second whose 0-1 quote
    group disagrees with the events."""
    quotes, events = tmp_path / "same_second_q.csv", tmp_path / "same_second_e.csv"
    quotes.write_text(SAME_SECOND_QUOTES)
    events.write_text(SAME_SECOND_EVENTS)
    return quotes, events
