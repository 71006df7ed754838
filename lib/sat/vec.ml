type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ~dummy = { data = Array.make 8 dummy; size = 0; dummy }

let length v = v.size
let is_empty v = v.size = 0

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let grow v =
  let data = Array.make (2 * Array.length v.data) v.dummy in
  Array.blit v.data 0 data 0 v.size;
  v.data <- data

let push v x =
  if v.size = Array.length v.data then grow v;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Vec.pop";
  v.size <- v.size - 1;
  let x = Array.unsafe_get v.data v.size in
  Array.unsafe_set v.data v.size v.dummy;
  x

let last v =
  if v.size = 0 then invalid_arg "Vec.last";
  Array.unsafe_get v.data (v.size - 1)

let clear v =
  Array.fill v.data 0 v.size v.dummy;
  v.size <- 0

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.size - n) v.dummy;
  v.size <- n

let iter f v =
  for i = 0 to v.size - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.size && (p (Array.unsafe_get v.data i) || loop (i + 1)) in
  loop 0

let to_list v = List.init v.size (fun i -> v.data.(i))

let of_list ~dummy xs =
  let v = create ~dummy in
  List.iter (push v) xs;
  v

let copy v = { data = Array.copy v.data; size = v.size; dummy = v.dummy }

let swap_remove v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.swap_remove";
  v.data.(i) <- v.data.(v.size - 1);
  v.size <- v.size - 1;
  v.data.(v.size) <- v.dummy
