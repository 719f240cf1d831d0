/* A monotonic nanosecond clock: served-from-cache requests take a few
   microseconds, below what gettimeofday resolves. */

#include <time.h>
#include <caml/mlvalues.h>

value perf_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
