"""A fixed loop that measures how fast the host runs Python at the moment.

On a shared host the speed of a core drifts by 15-25% over seconds to
minutes, which moves every timing with it.  worker.py runs this loop before
the workload starts and after every op, and run.py scales the invocation's
times by NOMINAL_S / median(loop times).  The loop touches nothing of
ednetsim, so host drift cancels and changes to the program remain.  It is
timed in the calling thread's CPU time, so a process sharing the core does
not count.
"""

import time

# Loop time on the 2-vCPU host the baseline was measured on; it sets the
# scale of the reported times and nothing else.
NOMINAL_S = 0.003


def sample():
    """CPU seconds one run of the fixed loop takes now."""
    t0 = time.thread_time()
    s = 0
    for i in range(40000):
        s += i * i % 7
    return time.thread_time() - t0
