"""Web content and client behaviour models.

Models the target website and the browser driving the page load:
web objects and pages, a request schedule with realistic inter-request
gaps, the isidewith.com replica used throughout the paper's evaluation
(one result HTML plus 47 embedded objects including the 8 political
party emblem images), a Firefox-like browser with pipelined requests
and reset-and-retry behaviour, and the volunteer workload generator
standing in for the paper's ~500 survey participants.
"""
