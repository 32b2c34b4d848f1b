let invalid fmt = Printf.ksprintf invalid_arg fmt

let float_field ~what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | _ -> invalid "Spec: %s is not a finite number: %S" what s

let criterion_of_string entry =
  match String.split_on_char ':' entry with
  | [ "ce"; p ] ->
      (entry, Mbac.Policy.gaussian ~p_ce:(float_field ~what:"p_ce" p))
  | [ "hoeffding"; p; peak ] ->
      ( entry,
        Mbac.Policy.hoeffding
          ~p_ce:(float_field ~what:"p_ce" p)
          ~peak:(float_field ~what:"peak" peak) )
  | _ ->
      invalid
        "Spec: bad criterion %S (want ce:<p_ce> or hoeffding:<p_ce>:<peak>)"
        entry

let criteria_of_string s =
  match String.split_on_char ',' s with
  | [] | [ "" ] -> invalid "Spec: empty criteria list"
  | entries -> List.map criterion_of_string (List.map String.trim entries)

let estimator_of_string s =
  match String.split_on_char ':' s with
  | [ "memoryless" ] -> Mbac.Estimator.memoryless ()
  | [ "ewma"; t ] -> Mbac.Estimator.ewma ~t_m:(float_field ~what:"t_m" t)
  | [ "window"; t ] ->
      Mbac.Estimator.sliding_window ~t_w:(float_field ~what:"t_w" t)
  | [ "aggregate"; t ] ->
      Mbac.Estimator.aggregate_only ~t_m:(float_field ~what:"t_m" t)
  | _ ->
      invalid
        "Spec: bad estimator %S (want memoryless, ewma:<t_m>, window:<t_w>, \
         or aggregate:<t_m>)"
        s
