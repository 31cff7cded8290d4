#include <time.h>
#include <caml/mlvalues.h>

/* CLOCK_MONOTONIC in nanoseconds: one time base for every thread and
   domain of a process (spans recorded on an executor thread nest in
   spans recorded on a worker domain). */
value ulpbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
