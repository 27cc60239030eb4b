let now_ns () = Int64.to_int (Monotonic_clock.now ())

external set_timer_slack_ns : int -> int = "ci_set_timer_slack_ns" [@@noalloc]
