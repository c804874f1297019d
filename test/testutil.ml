(** Test-suite glue around [Driver.Differential]. *)

include Driver.Differential

(** Alcotest case asserting the differential check passes and the final
    result is [Final expected]. *)
let diff_case ?options name src expected =
  Alcotest.test_case name `Quick (fun () ->
      match differential ?options src with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok results -> (
        match results with
        | { outcome =
              Ok
                (Core.Smallstep.Final
                   (_, { Iface.Li.cr_res = Memory.Values.Vint n; _ }));
            _ }
          :: _ ->
          Alcotest.(check int32) name expected n
        | r :: _ ->
          Alcotest.failf "%s: source outcome %a" name pp_level_result r
        | [] -> Alcotest.fail "no results"))

(** [steps] with its Allocation stage rebuilt around other allocators:
    how tests exercise the validator and the fallback. *)
let with_allocators ~fast ~fallback (steps : Driver.Pipeline.t) =
  List.map
    (function
      | Driver.Pipeline.Pass s
        when (Driver.Pipeline.info s).Convalg.Derive.pass_name = "Allocation" ->
        Driver.Pipeline.Pass (Driver.Pipeline.allocation ~fast ~fallback)
      | step -> step)
    steps

(** The linear-scan allocator, deliberately broken. *)
let clobbered : Passes.Allocation.allocator =
  Passes.Allocation.allocate_linear_with ~clobber:true
