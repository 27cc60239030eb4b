(* The command-line front end: each subcommand hands its options to the
   library unchecked, and a spec the library rejects exits 1 with the
   library's own message. The CLI runs in a fresh process (Sys.command
   goes through libc system(3)), which is also how the socket transport
   gets to fork after the domain-spawning suites. *)

let exe () =
  List.find_opt Sys.file_exists
    [ "../bin/consensus_sim.exe"; "_build/default/bin/consensus_sim.exe" ]

(* [run args] is the CLI's exit code and standard error, or [None] when
   the binary is not built. *)
let run args =
  Option.map
    (fun exe ->
      let err = Filename.temp_file "consensus_sim" ".err" in
      let rc =
        Sys.command
          (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote exe) args
             (Filename.quote err))
      in
      let msg = In_channel.with_open_text err In_channel.input_all in
      Sys.remove err;
      (rc, msg))
    (exe ())

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects args message () =
  match run args with
  | None -> print_endline "consensus_sim.exe not found; skipping"
  | Some (rc, err) ->
    Alcotest.(check int) (args ^ ": exit code") 1 rc;
    if not (contains err message) then
      Alcotest.failf "%s: stderr %S lacks %S" args err message

let suite =
  ( "cli",
    [
      Alcotest.test_case "run: --batch 0 is the runner's to reject" `Quick
        (rejects "run --batch 0" "Runner.run: batch must be >= 1");
      Alcotest.test_case "live: --read-ratio 2 is the runtime's to reject"
        `Quick
        (rejects "live --read-ratio 2 -d 0.1"
           "Live.run: read_ratio must be in [0, 1]");
      Alcotest.test_case "load: --rate 0 is the driver's to reject" `Quick
        (rejects "load --rate 0" "Arrival: rate must be finite and > 0");
      Alcotest.test_case "nemesis: an out-of-range node is the schedule's to reject"
        `Quick
        (rejects "nemesis --crash 9:10:10"
           "Runner.run: nemesis: crash: node 9 out of range");
    ] )
