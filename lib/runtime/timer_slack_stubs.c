/* Per-thread timer slack: how far past its deadline the kernel may let
   a sleep run, so that wake-ups can be coalesced. Linux only. */

#include <caml/mlvalues.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

/* Sets the calling thread's slack to [ns] when [ns > 0] and returns the
   previous value; returns 0 and changes nothing where the kernel has no
   such setting. */
value ci_set_timer_slack_ns(value v_ns)
{
#ifdef __linux__
  long ns = Long_val(v_ns);
  int old = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  if (old <= 0) return Val_long(0);
  if (ns > 0) prctl(PR_SET_TIMERSLACK, (unsigned long)ns, 0, 0, 0);
  return Val_long(old);
#else
  (void)v_ns;
  return Val_long(0);
#endif
}
