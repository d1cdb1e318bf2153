"""Tests of the benchmark's own statistics code (stats.py).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import random
import unittest

import stats
from stats import Record

MS = 1_000_000  # ns


def start_after_stall(start_ns, service_ns, stall_at_ns, stall_ns):
    """When a job ready at `start_ns` runs on a server that stops for
    `stall_ns` at `stall_at_ns` (a long publish, say)."""
    if start_ns < stall_at_ns + stall_ns and start_ns + service_ns > stall_at_ns:
        return stall_at_ns + stall_ns
    return start_ns


def fifo_server(arrivals_ns, service_ns, stall_at_ns, stall_ns):
    """Completion times of a single FIFO server with one stall."""
    done, free_at = [], 0
    for t in arrivals_ns:
        start = start_after_stall(max(t, free_at), service_ns, stall_at_ns,
                                  stall_ns)
        free_at = start + service_ns
        done.append(free_at)
    return done


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 99.0), 99)
        self.assertEqual(stats.percentile(values, 100.0), 100)
        self.assertIsNone(stats.percentile([], 50.0))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(999), 98.0)
        self.assertEqual(stats.supported_percentile(200), 95.0)
        self.assertEqual(stats.supported_percentile(199), 90.0)
        self.assertEqual(stats.supported_percentile(20), 50.0)
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(10000), 99.9)

    def test_rule_holds_across_sizes(self):
        ladder = stats.PERCENTILE_LADDER
        sizes = sorted(set(range(1, 3000, 37)) |
                       {19, 20, 199, 200, 999, 1000, 1999, 2000})
        for n in sizes:
            p = stats.supported_percentile(n)
            if p is None:
                continue
            values = list(range(n))
            beyond = sum(1 for v in values if v > stats.percentile(values, p))
            self.assertGreaterEqual(beyond, stats.MIN_BEYOND, (n, p))
            higher = [q for q in ladder if q > p]
            if higher:
                q = min(higher)
                beyond_q = sum(1 for v in values
                               if v > stats.percentile(values, q))
                self.assertLess(beyond_q, stats.MIN_BEYOND, (n, q))


class DueTimeLatencyTest(unittest.TestCase):
    """A 100 ms server stall under a 2 ms open-loop schedule delays every
    request due during the stall. Timing from the due time charges each of
    them; a blocking client timing from its own send (coordinated
    omission) sees one slow request."""

    INTERVAL = 2 * MS
    SERVICE = 1 * MS
    STALL_AT = 101 * MS
    STALL = 100 * MS
    N = 1000

    def open_loop_records(self):
        due = [i * self.INTERVAL for i in range(self.N)]
        done = fifo_server(due, self.SERVICE, self.STALL_AT, self.STALL)
        return [Record(phase=stats.PHASE_OPEN, due_ns=d, sent_ns=d,
                       recv_ns=r) for d, r in zip(due, done)]

    def blocking_client_records(self):
        # Sends each request only when the previous reply is in.
        records, free_at = [], 0
        for i in range(self.N):
            due = i * self.INTERVAL
            sent = max(due, free_at)
            start = start_after_stall(sent, self.SERVICE, self.STALL_AT,
                                      self.STALL)
            free_at = start + self.SERVICE
            records.append(Record(phase=stats.PHASE_OPEN, due_ns=due,
                                  sent_ns=sent, recv_ns=free_at))
        return records

    def test_stall_is_charged_to_every_request_due_during_it(self):
        latencies = stats.latencies_ms(self.open_loop_records())
        delayed = sum(1 for v in latencies if v > 10.0)
        # Every request due inside the stall window waits for it.
        self.assertGreaterEqual(delayed, self.STALL // self.INTERVAL - 1)
        self.assertGreater(stats.percentile(latencies, 99.0), 50.0)
        self.assertAlmostEqual(stats.percentile(latencies, 50.0), 1.0)

    def test_send_time_accounting_hides_the_stall(self):
        records = self.blocking_client_records()
        from_sent = stats.latencies_ms(records, since="sent")
        from_due = stats.latencies_ms(records, since="due")
        self.assertEqual(sum(1 for v in from_sent if v > 10.0), 1)
        self.assertLess(stats.percentile(from_sent, 99.0), 2.0)
        # The same replies timed from their due times expose the stall.
        self.assertGreater(stats.percentile(from_due, 99.0), 50.0)

    def test_generator_lateness(self):
        records = self.blocking_client_records()
        self.assertGreater(stats.loadgen_lateness(records), 50.0)
        self.assertEqual(stats.loadgen_lateness(self.open_loop_records()), 0)


class FailureAccountingTest(unittest.TestCase):
    def records(self):
        ok = Record(phase=1, due_ns=0, sent_ns=0, recv_ns=1 * MS, code=0,
                    verdict=stats.VERDICT_VERIFIED)
        unanswered = Record(phase=1, due_ns=0, sent_ns=0, code=-1)
        shed = Record(phase=1, due_ns=0, sent_ns=0, recv_ns=1 * MS, code=7)
        garbled = Record(phase=1, due_ns=0, sent_ns=0, recv_ns=1 * MS,
                         code=-2)
        wrong = Record(phase=1, due_ns=0, sent_ns=0, recv_ns=1 * MS, code=0,
                       verdict=stats.VERDICT_MISMATCH)
        unchecked = Record(phase=1, due_ns=0, sent_ns=0, recv_ns=2 * MS,
                           code=0, verdict=stats.VERDICT_UNCHECKED)
        return [ok, unanswered, shed, garbled, wrong, unchecked]

    def test_unanswered_and_mismatched_count_as_failed(self):
        attempted, failed = stats.failures(self.records())
        self.assertEqual(attempted, 6)
        self.assertEqual(failed, 4)

    def test_failed_requests_miss_every_latency_limit(self):
        latencies = stats.latencies_ms(self.records())
        self.assertEqual(sorted(latencies)[:2], [1.0, 2.0])
        self.assertEqual(latencies.count(stats.FAILED_LATENCY_MS), 4)
        self.assertEqual(stats.percentile(latencies, 50.0),
                         stats.FAILED_LATENCY_MS)

    def test_capacity_counts_ok_answers_inside_the_window(self):
        summary = {"closed_start_ns": 0, "closed_end_ns": 2 * 10**9}
        closed = [Record(phase=stats.PHASE_CLOSED, due_ns=t, sent_ns=t,
                         recv_ns=t + MS, code=0)
                  for t in range(0, 3 * 10**9, 10**8)]
        closed.append(Record(phase=stats.PHASE_CLOSED, due_ns=0, sent_ns=0,
                             recv_ns=MS, code=7))
        # Ten ok answers land in each second of the 2 s window; the shed
        # request and the answers after the window do not count.
        self.assertEqual(stats.capacity_per_second(closed, summary), [10, 10])

    def test_a_stall_anywhere_in_the_phase_moves_the_tail(self):
        # p99 is taken over the whole open-loop phase: 2% of requests
        # stalled in any one stretch of it set the reported tail.
        summary = {"setups": [{"setup_s": 1.0}], "peak_rss_kb": 1024}
        for stalled_from in (0, 4900, 9800):
            records = [Record(phase=stats.PHASE_OPEN, kind=stats.KIND_QUERY,
                              due_ns=i * MS, sent_ns=i * MS,
                              recv_ns=i * MS + (50 if stalled_from <= i <
                                                stalled_from + 200 else 1) * MS,
                              code=0)
                       for i in range(10000)]
            metrics, samples, _ = stats.end_to_end(records, summary)
            self.assertEqual(metrics["query_p99_ms"][0], 50.0, stalled_from)
            self.assertEqual(samples["query_p99_ms"], 10000)


if __name__ == "__main__":
    unittest.main()
