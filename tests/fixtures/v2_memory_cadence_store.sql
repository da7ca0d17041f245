BEGIN TRANSACTION;
CREATE TABLE assignment_seconds (
    ord     INTEGER PRIMARY KEY AUTOINCREMENT,
    seconds REAL NOT NULL
);
INSERT INTO "assignment_seconds" VALUES(1,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(2,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(3,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(4,97.0);
INSERT INTO "assignment_seconds" VALUES(5,97.0);
INSERT INTO "assignment_seconds" VALUES(6,97.0);
INSERT INTO "assignment_seconds" VALUES(7,6.98000000000000113669e+01);
INSERT INTO "assignment_seconds" VALUES(8,6.98000000000000113669e+01);
CREATE TABLE csr_chunks (
    chunk_no    INTEGER PRIMARY KEY AUTOINCREMENT,
    indices     BLOB NOT NULL,
    row_lengths BLOB NOT NULL
);
INSERT INTO "csr_chunks" VALUES(1,X'0C00000000000000320000000000000053000000000000001D000000000000003F00000000000000540000000000000013000000000000004B0000000000000007000000000000001E0000000000000031000000000000000F00000000000000290000000000000049000000000000002B000000000000003B00000000000000340000000000000016000000000000002C000000000000000A000000000000003000000000000000130000000000000033000000000000002A00000000000000440000000000000016000000000000004E000000000000002300000000000000260000000000000045000000000000000D0000000000000039000000000000002400000000000000020000000000000028000000000000003B000000000000001B0000000000000012000000000000001D00000000000000210000000000000042000000000000003C000000000000003900000000000000130000000000000056000000000000000800000000000000270000000000000010000000000000001500000000000000500000000000000011000000000000000100000000000000210000000000000018000000000000003A000000000000004F000000000000001F000000000000004800000000000000570000000000000015000000000000002E0000000000000003000000000000003E000000000000002D0000000000000041000000000000004800000000000000230000000000000012000000000000000A000000000000003000000000000000130000000000000033000000000000002A0000000000000016000000000000003700000000000000110000000000000055000000000000002F000000000000000E000000000000003500000000000000420000000000000039000000000000003A000000000000000400000000000000200000000000000048000000000000001100000000000000320000000000000005000000000000001900000000000000360000000000000014000000000000004000000000000000170000000000000025000000000000003D00000000000000380000000000000006000000000000004C0000000000000046000000000000004B0000000000000020000000000000005700000000000000110000000000000009000000000000005500000000000000430000000000000039000000000000003A000000000000001C00000000000000410000000000000058000000000000000B0000000000000047000000000000001D000000000000001A000000000000004B000000000000001B000000000000000B0000000000000047000000000000004A0000000000000010000000000000001D0000000000000051000000000000000D0000000000000039000000000000004D000000000000003B00000000000000500000000000000049000000000000002100000000000000520000000000000042000000000000000000000000000000220000000000000033000000000000002A000000000000007F00000000000000630000000000000074000000000000002C00000000000000390000000000000072000000000000002D00000000000000680000000000000058000000000000002000000000000000670000000000000050000000000000007E00000000000000590000000000000077000000000000002D000000000000007D000000000000002700000000000000100000000000000079000000000000006700000000000000740000000000000055000000000000000E00000000000000350000000000000066000000000000006C00000000000000150000000000000011000000000000001A0000000000000021000000000000003A000000000000003C000000000000004F00000000000000650000000000000016000000000000004E000000000000005B000000000000006B00000000000000500000000000000045000000000000007600000000000000240000000000000028000000000000001B000000000000007B000000000000001000000000000000150000000000000036000000000000006A00000000000000300000000000000060000000000000004C000000000000003B00000000000000750000000000000019000000000000004200000000000000250000000000000018000000000000005F0000000000000077000000000000003B000000000000002D000000000000002000000000000000670000000000000055000000000000006E00000000000000360000000000000043000000000000007A000000000000005D000000000000004C000000000000000C000000000000004E00000000000000320000000000000053000000000000001D000000000000003F00000000000000540000000000000013000000000000004E00000000000000480000000000000047000000000000005C000000000000006E000000000000007C00000000000000690000000000000046000000000000004C0000000000000061000000000000001000000000000000730000000000000031000000000000000F0000000000000055000000000000006F000000000000002500000000000000390000000000000056000000000000004800000000000000730000000000000062000000000000001A000000000000006A000000000000003900000000000000780000000000000046000000000000004C0000000000000020000000000000004800000000000000710000000000000064000000000000006E000000000000001900000000000000350000000000000051000000000000001C000000000000006C000000000000007B00000000000000790000000000000031000000000000000F0000000000000012000000000000005E000000000000006D0000000000000078000000000000003B0000000000000070000000000000005A000000000000002E000000000000002100000000000000520000000000000051000000000000003C00000000000000780000000000000039000000000000005800000000000000',X'08000000000000000A0000000000000008000000000000000B0000000000000009000000000000000A00000000000000090000000000000009000000000000000A00000000000000090000000000000008000000000000000B0000000000000006000000000000000A0000000000000009000000000000000900000000000000080000000000000009000000000000000A000000000000000900000000000000090000000000000009000000000000000900000000000000080000000000000009000000000000000A00000000000000090000000000000009000000000000000A000000000000000A00000000000000');
CREATE TABLE events (
    seq     INTEGER PRIMARY KEY,
    type    TEXT NOT NULL,
    payload TEXT NOT NULL,
    crc     INTEGER NOT NULL
);
INSERT INTO "events" VALUES(1,'session','{"config":{"aggregation":"dawid-skene","assignments_per_hit":3,"backpressure_policy":"block","checkpoint_dir":"out/store","checkpoint_every_batches":3,"cluster_generator":"two-tiered","cluster_size":10,"crowd_max_retries":3,"crowd_mode":"async","fault_plan":{"delay_ticks_max":3,"delay_ticks_min":1,"seed":3},"hit_type":"cluster","join_backend":"auto","join_workers":0,"likelihood_threshold":0.15,"max_inflight_hits":64,"pairs_per_hit":16,"seed":0,"similarity_attributes":null,"storage_backend":"memory","stream_batch_size":256,"streaming_aggregation_scope":"component","use_qualification_test":false,"vote_mode":"per-pair","vote_timeout":8},"cross_sources":null,"version":2}',3605913957);
INSERT INTO "events" VALUES(2,'truth','{"pairs":[["r1","r24"],["r11","r32"],["r13","r14"],["r16","r39"],["r20","r4"],["r3","r8"],["r33","r42"],["r36","r7"]]}',738951277);
INSERT INTO "events" VALUES(3,'batch','{"records":[{"attributes":{"address":"9293 ventura st","city":"denver","name":"old lotus bistro","type":"vegetarian"},"record_id":"r1","source":null},{"attributes":{"address":"5341 north market boulevard","city":"los angeles","name":"harbor spoon diner","type":"indian"},"record_id":"r2","source":null},{"attributes":{"address":"8154 s main boulevard","city":"houston","name":"little bistro","type":"japanese"},"record_id":"r3","source":null},{"attributes":{"address":"2308 north columbus street","city":"san francisco","name":"golden fork grill","type":"american new"},"record_id":"r4","source":null},{"attributes":{"address":"7794 east oak road","city":"denver","name":"new willow bistro","type":"bbq"},"record_id":"r5","source":null},{"attributes":{"address":"1868 east canal avenue","city":"boston","name":"green terrace noodle bar","type":"thai"},"record_id":"r6","source":null},{"attributes":{"address":"2334 south wilshire dr","city":"boston","name":"oedar lantern kitchen","type":"pizza"},"record_id":"r7","source":null},{"attributes":{"address":"8154 south main boulevard","city":"houston","name":"little fork bistro","type":"bbq"},"record_id":"r8","source":null},{"attributes":{"address":"3012 west lexington road","city":"miami","name":"new anchor noodle bar","type":"mediterranean"},"record_id":"r9","source":null},{"attributes":{"address":"4491 south park drive","city":"chicago","name":"blue lotus bar","type":"mexican"},"record_id":"r10","source":null},{"attributes":{"address":"5064 mission st","city":"seattle","name":"ocean bzsil steakhouse","type":"french"},"record_id":"r11","source":null},{"attributes":{"address":"8033 west wilshire drive","city":"new york","name":"corner rose noodle bar","type":"pizza"},"record_id":"r12","source":null},{"attributes":{"address":"8620 columbus st","city":"denver","name":"silver","type":"chinese"},"record_id":"r13","source":null},{"attributes":{"address":"8620 north spring avenue","city":"denver","name":"silver stove trattoria","type":"american new"},"record_id":"r14","source":null},{"attributes":{"address":"1256 east main road","city":"houston","name":"uptown spoon eatery","type":"thai"},"record_id":"r15","source":null}]}',1242044038);
INSERT INTO "events" VALUES(4,'commit','{"delta":{"batch_index":1,"clean_components":0,"crowdsourced_pairs":0,"dirty_components":10,"dirty_pairs":5,"invalidated_pairs":0,"new_candidate_pairs":5,"new_records":15,"preserved_posterior_pairs":0,"regenerated_hits":1,"retracted_records":0,"reused_vote_pairs":0},"digest":"3bddc25379706ed7e4a00b1538207c6256add93c7d4ad1b444dcf0e6170f4085","votes":[]}',670259758);
INSERT INTO "events" VALUES(5,'batch','{"records":[{"attributes":{"address":"6215 wes melrose ave","city":"new york","name":"lucky kitchen","type":"japanese"},"record_id":"r16","source":null},{"attributes":{"address":"1586 union drive","city":"atlanta","name":"village orchid kitchen","type":"thai"},"record_id":"r17","source":null},{"attributes":{"address":"8873 west melrose avenue","city":"atlanta","name":"green anchor restaurant","type":"mediterranean"},"record_id":"r18","source":null},{"attributes":{"address":"7899 east oak boulevard","city":"boston","name":"happy terrace noodle bar","type":"chinese"},"record_id":"r19","source":null},{"attributes":{"address":"2j08 n columbus street","city":"san francisco","name":"firk grill","type":"thai"},"record_id":"r20","source":null},{"attributes":{"address":"5596 north sunset avenue","city":"boston","name":"little dragon steakhouse","type":"mexican"},"record_id":"r21","source":null},{"attributes":{"address":"547 north canal road","city":"chicago","name":"mountain orchid kitchen","type":"french"},"record_id":"r22","source":null},{"attributes":{"address":"4923 west hill drive","city":"atlanta","name":"sunny rose steakhouse","type":"mexican"},"record_id":"r23","source":null},{"attributes":{"address":"9293 ventura street","city":"denver","name":"old lotus bistro","type":"vegetarian"},"record_id":"r24","source":null},{"attributes":{"address":"3970 south hill street","city":"seattle","name":"silver table cafe","type":"steakhouse"},"record_id":"r25","source":null},{"attributes":{"address":"6034 west maple avenue","city":"los angeles","name":"new willow house","type":"french"},"record_id":"r26","source":null},{"attributes":{"address":"6140 south maple place","city":"seattle","name":"new dragon steakhouse","type":"chinese"},"record_id":"r27","source":null},{"attributes":{"address":"6577 south hill drive","city":"chicago","name":"corner kettle trattoria","type":"mediterranean"},"record_id":"r28","source":null},{"attributes":{"address":"5184 north sunset place","city":"los angeles","name":"happy hearth restaurant","type":"bbq"},"record_id":"r29","source":null},{"attributes":{"address":"2416 east oak place","city":"new york","name":"uptown lantern trattoria","type":"italian"},"record_id":"r30","source":null}]}',1604326157);
INSERT INTO "events" VALUES(6,'commit','{"delta":{"batch_index":2,"clean_components":4,"crowdsourced_pairs":10,"dirty_components":12,"dirty_pairs":13,"invalidated_pairs":0,"new_candidate_pairs":9,"new_records":15,"preserved_posterior_pairs":0,"regenerated_hits":2,"retracted_records":0,"reused_vote_pairs":0},"digest":"e1e15e3af2aadb577dab8b3edf5863959ed28535345754d53c530b03af2b3d3e","votes":[["r1","r13",[["worker-39",["r1","r13"],false],["worker-60",["r1","r13"],false],["worker-49",["r1","r13"],true]]],["r1","r24",[["worker-43",["r1","r24"],true],["worker-42",["r1","r24"],true],["worker-1",["r1","r24"],true]]],["r10","r28",[["worker-31",["r10","r28"],false],["worker-3",["r10","r28"],false],["worker-36",["r10","r28"],false]]],["r12","r23",[["worker-54",["r12","r23"],false],["worker-27",["r12","r23"],false],["worker-9",["r12","r23"],false]]],["r12","r9",[["worker-41",["r12","r9"],false],["worker-44",["r12","r9"],false],["worker-12",["r12","r9"],false]]],["r13","r14",[["worker-45",["r13","r14"],true],["worker-24",["r13","r14"],true],["worker-5",["r13","r14"],true]]],["r14","r4",[["worker-8",["r14","r4"],false],["worker-60",["r14","r4"],false],["worker-36",["r14","r4"],false]]],["r18","r9",[["worker-8",["r18","r9"],false],["worker-57",["r18","r9"],true],["worker-14",["r18","r9"],false]]],["r19","r6",[["worker-58",["r19","r6"],true],["worker-15",["r19","r6"],false],["worker-54",["r19","r6"],false]]],["r3","r8",[["worker-2",["r3","r8"],true],["worker-42",["r3","r8"],true],["worker-26",["r3","r8"],false]]]]}',1537329766);
INSERT INTO "events" VALUES(7,'retract','{"record_id":"r4"}',1308517374);
INSERT INTO "events" VALUES(8,'commit','{"delta":{"batch_index":3,"clean_components":15,"crowdsourced_pairs":0,"dirty_components":2,"dirty_pairs":3,"invalidated_pairs":2,"new_candidate_pairs":0,"new_records":0,"preserved_posterior_pairs":6,"regenerated_hits":0,"retracted_records":1,"reused_vote_pairs":0},"digest":"83febab689ed51976a9949906cc5791eb5455fb234fb69f7f2dae1b79af1c652","votes":[]}',1408156517);
INSERT INTO "events" VALUES(9,'update','{"record":{"attributes":{"address":"1868 east canal avenue","city":"boston","name":"revised beyond recognition","type":"thai"},"record_id":"r6","source":null}}',1495207987);
INSERT INTO "events" VALUES(10,'commit','{"delta":{"batch_index":5,"clean_components":17,"crowdsourced_pairs":3,"dirty_components":1,"dirty_pairs":0,"invalidated_pairs":1,"new_candidate_pairs":0,"new_records":1,"preserved_posterior_pairs":8,"regenerated_hits":0,"retracted_records":1,"reused_vote_pairs":0},"digest":"9cfd8f485af2622e5df3020f91be6c2067ed9327786a6687248517ec4c2a6368","votes":[["r2","r29",[["worker-51",["r2","r29"],false],["worker-35",["r2","r29"],false],["worker-19",["r2","r29"],false]]],["r25","r27",[["worker-7",["r25","r27"],false],["worker-18",["r25","r27"],false],["worker-37",["r25","r27"],false]]],["r30","r5",[["worker-17",["r30","r5"],false],["worker-58",["r30","r5"],false],["worker-36",["r30","r5"],false]]]]}',3270733478);
INSERT INTO "events" VALUES(11,'batch','{"records":[{"attributes":{"address":"3555 east spring drive","city":"miami","name":"lucky grove kitchen","type":"american"},"record_id":"r31","source":null},{"attributes":{"address":"5064 mission street","city":"seattle","name":"ocean basil steakhouse","type":"french"},"record_id":"r32","source":null},{"attributes":{"address":"3341 e market road","city":"new york","name":"blue truffle house","type":"american new"},"record_id":"r33","source":null},{"attributes":{"address":"8943 south columbus boulevard","city":"los angeles","name":"cedar maple bistro","type":"italian"},"record_id":"r34","source":null},{"attributes":{"address":"3403 north market avenue","city":"seattle","name":"river pepper trattoria","type":"vegetarian"},"record_id":"r35","source":null},{"attributes":{"address":"2334 south wilshire drive","city":"boston","name":"cedar lantern kitchen","type":"pizza"},"record_id":"r36","source":null},{"attributes":{"address":"338 east valencia drive","city":"houston","name":"little panda brasserie","type":"chinese"},"record_id":"r37","source":null},{"attributes":{"address":"1011 south mission avenue","city":"houston","name":"happy rose grill","type":"bbq"},"record_id":"r38","source":null},{"attributes":{"address":"6215 west melrose avenue","city":"new york","name":"lucky falcon kitchen","type":"pizza"},"record_id":"r39","source":null},{"attributes":{"address":"3578 north sunset road","city":"boston","name":"palm kettle noodle bar","type":"french"},"record_id":"r40","source":null}]}',4000149810);
INSERT INTO "events" VALUES(12,'commit','{"delta":{"batch_index":6,"clean_components":6,"crowdsourced_pairs":0,"dirty_components":6,"dirty_pairs":26,"invalidated_pairs":0,"new_candidate_pairs":17,"new_records":10,"preserved_posterior_pairs":2,"regenerated_hits":3,"retracted_records":0,"reused_vote_pairs":9},"digest":"a74a59d4a52773cf97c3dd9dda69fc994e196f3b03a1522f7457f3abf13d988d","votes":[]}',3829658925);
CREATE TABLE join_rows (
    row_no    INTEGER PRIMARY KEY,
    record_id TEXT NOT NULL,
    source    TEXT,
    empty     INTEGER NOT NULL DEFAULT 0,
    dead      INTEGER NOT NULL DEFAULT 0
);
INSERT INTO "join_rows" VALUES(0,'r1',NULL,0,0);
INSERT INTO "join_rows" VALUES(1,'r2',NULL,0,0);
INSERT INTO "join_rows" VALUES(2,'r3',NULL,0,0);
INSERT INTO "join_rows" VALUES(3,'r4',NULL,0,1);
INSERT INTO "join_rows" VALUES(4,'r5',NULL,0,0);
INSERT INTO "join_rows" VALUES(5,'r6',NULL,0,0);
INSERT INTO "join_rows" VALUES(6,'r7',NULL,0,0);
INSERT INTO "join_rows" VALUES(7,'r8',NULL,0,0);
INSERT INTO "join_rows" VALUES(8,'r9',NULL,0,0);
INSERT INTO "join_rows" VALUES(9,'r10',NULL,0,0);
INSERT INTO "join_rows" VALUES(10,'r11',NULL,0,0);
INSERT INTO "join_rows" VALUES(11,'r12',NULL,0,0);
INSERT INTO "join_rows" VALUES(12,'r13',NULL,0,0);
INSERT INTO "join_rows" VALUES(13,'r14',NULL,0,0);
INSERT INTO "join_rows" VALUES(14,'r15',NULL,0,0);
INSERT INTO "join_rows" VALUES(15,'r16',NULL,0,0);
INSERT INTO "join_rows" VALUES(16,'r17',NULL,0,0);
INSERT INTO "join_rows" VALUES(17,'r18',NULL,0,0);
INSERT INTO "join_rows" VALUES(18,'r19',NULL,0,0);
INSERT INTO "join_rows" VALUES(19,'r20',NULL,0,0);
INSERT INTO "join_rows" VALUES(20,'r21',NULL,0,0);
INSERT INTO "join_rows" VALUES(21,'r22',NULL,0,0);
INSERT INTO "join_rows" VALUES(22,'r23',NULL,0,0);
INSERT INTO "join_rows" VALUES(23,'r24',NULL,0,0);
INSERT INTO "join_rows" VALUES(24,'r25',NULL,0,0);
INSERT INTO "join_rows" VALUES(25,'r26',NULL,0,0);
INSERT INTO "join_rows" VALUES(26,'r27',NULL,0,0);
INSERT INTO "join_rows" VALUES(27,'r28',NULL,0,0);
INSERT INTO "join_rows" VALUES(28,'r29',NULL,0,0);
INSERT INTO "join_rows" VALUES(29,'r30',NULL,0,0);
CREATE TABLE ledger (
    id_a       TEXT NOT NULL,
    id_b       TEXT NOT NULL,
    likelihood REAL,
    votes      TEXT,
    pending    INTEGER NOT NULL,
    posterior  REAL,
    covered    INTEGER NOT NULL,
    PRIMARY KEY (id_a, id_b)
) WITHOUT ROWID;
INSERT INTO "ledger" VALUES('r1','r13',1.66666666666666657414e-01,'[["worker-39", false], ["worker-60", false], ["worker-49", true]]',0,9.99998901365404924135e-01,1);
INSERT INTO "ledger" VALUES('r1','r24',7.77777777777777790113e-01,'[["worker-43", true], ["worker-42", true], ["worker-1", true]]',0,0.99999996948239,1);
INSERT INTO "ledger" VALUES('r10','r28',0.2,'[["worker-31", false], ["worker-3", false], ["worker-36", false]]',0,8.71469752544945693017e-03,1);
INSERT INTO "ledger" VALUES('r12','r23',1.76470588235294129075e-01,'[["worker-54", false], ["worker-27", false], ["worker-9", false]]',0,9.02006653928249906015e-03,1);
INSERT INTO "ledger" VALUES('r12','r9',2.35294117647058820264e-01,'[["worker-41", false], ["worker-44", false], ["worker-12", false]]',0,9.0221177051242728434e-03,1);
INSERT INTO "ledger" VALUES('r13','r14',2.30769230769230782041e-01,'[["worker-45", true], ["worker-24", true], ["worker-5", true]]',0,0.99999996948239,1);
INSERT INTO "ledger" VALUES('r18','r9',0.1875,'[["worker-8", false], ["worker-57", true], ["worker-14", false]]',0,5.42197353876336662903e-02,1);
INSERT INTO "ledger" VALUES('r19','r6',3.33333333333333314829e-01,'[["worker-58", true], ["worker-15", false], ["worker-54", false]]',0,5.42325155881081474862e-02,1);
INSERT INTO "ledger" VALUES('r2','r29',1.76470588235294129075e-01,NULL,0,NULL,1);
INSERT INTO "ledger" VALUES('r25','r27',0.2,NULL,0,NULL,1);
INSERT INTO "ledger" VALUES('r3','r8',5.45454545454545414173e-01,'[["worker-2", true], ["worker-42", true], ["worker-26", false]]',0,3.48578525905515579363e-01,1);
INSERT INTO "ledger" VALUES('r30','r5',0.1875,NULL,0,NULL,1);
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
INSERT INTO "meta" VALUES('version','2');
INSERT INTO "meta" VALUES('config','{"likelihood_threshold": 0.15, "hit_type": "cluster", "cluster_size": 10, "pairs_per_hit": 16, "cluster_generator": "two-tiered", "assignments_per_hit": 3, "use_qualification_test": false, "aggregation": "dawid-skene", "similarity_attributes": null, "join_backend": "auto", "join_workers": 0, "vote_mode": "per-pair", "stream_batch_size": 256, "streaming_aggregation_scope": "component", "checkpoint_dir": "out/store", "checkpoint_every_batches": 3, "storage_backend": "memory", "crowd_mode": "async", "vote_timeout": 8, "max_inflight_hits": 64, "backpressure_policy": "block", "crowd_max_retries": 3, "fault_plan": {"seed": 3, "delay_ticks_min": 1, "delay_ticks_max": 3}, "seed": 0}');
INSERT INTO "meta" VALUES('cross_sources','null');
INSERT INTO "meta" VALUES('truth','[["r1", "r24"], ["r11", "r32"], ["r13", "r14"], ["r16", "r39"], ["r20", "r4"], ["r3", "r8"], ["r33", "r42"], ["r36", "r7"]]');
INSERT INTO "meta" VALUES('session','{"hit_count": 3, "cost": 0.22500000000000003, "batch_index": 3, "pairs_per_hit_seen": null, "generator_name": "two-tiered", "last_delta": {"batch_index": 3, "new_records": 0, "new_candidate_pairs": 0, "dirty_components": 2, "clean_components": 15, "dirty_pairs": 3, "regenerated_hits": 0, "crowdsourced_pairs": 0, "reused_vote_pairs": 0, "preserved_posterior_pairs": 6, "retracted_records": 1, "invalidated_pairs": 2}}');
INSERT INTO "meta" VALUES('async','{"platform": {"clock": 2, "publish_count": 2, "retries": 0, "timeouts": 0, "duplicates_dropped": 0, "reissued": 0, "extra_cost": 0.0, "seen": ["p0:two-tiered-hit-1/s0/a0", "p0:two-tiered-hit-1/s1/a0", "p0:two-tiered-hit-1/s2/a0", "p1:two-tiered-hit-1/s0/a0", "p1:two-tiered-hit-1/s1/a0", "p1:two-tiered-hit-1/s2/a0", "p1:two-tiered-hit-2/s0/a0", "p1:two-tiered-hit-2/s2/a0"], "hits": [["p1:two-tiered-hit-2", {"pairs": [["r2", "r29"], ["r20", "r4"], ["r25", "r27"], ["r30", "r5"]], "truth": [["r2", "r29", false], ["r20", "r4", true], ["r25", "r27", false], ["r30", "r5", false]], "seconds": 69.80000000000001, "delivered": [0, 2], "issued_tick": 1, "publish_index": 1}]], "pending": [{"hit": "p1:two-tiered-hit-2", "slot": 1, "attempt": 0, "assignment_id": "p1:two-tiered-hit-2/s1/a0", "issued_tick": 1, "due_tick": 3, "deadline_tick": 9, "duplicate_of": null}], "ready": []}, "slot_votes": [["r2", "r29", [[0, "worker-51", false], [2, "worker-19", false]]], ["r25", "r27", [[0, "worker-7", false], [2, "worker-37", false]]], ["r30", "r5", [[0, "worker-17", false], [2, "worker-36", false]]]], "starved": []}');
INSERT INTO "meta" VALUES('events_applied','8');
CREATE TABLE records (
    record_id  TEXT PRIMARY KEY,
    attributes TEXT NOT NULL,
    source     TEXT,
    arrival    INTEGER NOT NULL
);
INSERT INTO "records" VALUES('r1','{"name": "old lotus bistro", "address": "9293 ventura st", "city": "denver", "type": "vegetarian"}',NULL,0);
INSERT INTO "records" VALUES('r2','{"name": "harbor spoon diner", "address": "5341 north market boulevard", "city": "los angeles", "type": "indian"}',NULL,1);
INSERT INTO "records" VALUES('r3','{"name": "little bistro", "address": "8154 s main boulevard", "city": "houston", "type": "japanese"}',NULL,2);
INSERT INTO "records" VALUES('r5','{"name": "new willow bistro", "address": "7794 east oak road", "city": "denver", "type": "bbq"}',NULL,3);
INSERT INTO "records" VALUES('r6','{"name": "green terrace noodle bar", "address": "1868 east canal avenue", "city": "boston", "type": "thai"}',NULL,4);
INSERT INTO "records" VALUES('r7','{"name": "oedar lantern kitchen", "address": "2334 south wilshire dr", "city": "boston", "type": "pizza"}',NULL,5);
INSERT INTO "records" VALUES('r8','{"name": "little fork bistro", "address": "8154 south main boulevard", "city": "houston", "type": "bbq"}',NULL,6);
INSERT INTO "records" VALUES('r9','{"name": "new anchor noodle bar", "address": "3012 west lexington road", "city": "miami", "type": "mediterranean"}',NULL,7);
INSERT INTO "records" VALUES('r10','{"name": "blue lotus bar", "address": "4491 south park drive", "city": "chicago", "type": "mexican"}',NULL,8);
INSERT INTO "records" VALUES('r11','{"name": "ocean bzsil steakhouse", "address": "5064 mission st", "city": "seattle", "type": "french"}',NULL,9);
INSERT INTO "records" VALUES('r12','{"name": "corner rose noodle bar", "address": "8033 west wilshire drive", "city": "new york", "type": "pizza"}',NULL,10);
INSERT INTO "records" VALUES('r13','{"name": "silver", "address": "8620 columbus st", "city": "denver", "type": "chinese"}',NULL,11);
INSERT INTO "records" VALUES('r14','{"name": "silver stove trattoria", "address": "8620 north spring avenue", "city": "denver", "type": "american new"}',NULL,12);
INSERT INTO "records" VALUES('r15','{"name": "uptown spoon eatery", "address": "1256 east main road", "city": "houston", "type": "thai"}',NULL,13);
INSERT INTO "records" VALUES('r16','{"name": "lucky kitchen", "address": "6215 wes melrose ave", "city": "new york", "type": "japanese"}',NULL,14);
INSERT INTO "records" VALUES('r17','{"name": "village orchid kitchen", "address": "1586 union drive", "city": "atlanta", "type": "thai"}',NULL,15);
INSERT INTO "records" VALUES('r18','{"name": "green anchor restaurant", "address": "8873 west melrose avenue", "city": "atlanta", "type": "mediterranean"}',NULL,16);
INSERT INTO "records" VALUES('r19','{"name": "happy terrace noodle bar", "address": "7899 east oak boulevard", "city": "boston", "type": "chinese"}',NULL,17);
INSERT INTO "records" VALUES('r20','{"name": "firk grill", "address": "2j08 n columbus street", "city": "san francisco", "type": "thai"}',NULL,18);
INSERT INTO "records" VALUES('r21','{"name": "little dragon steakhouse", "address": "5596 north sunset avenue", "city": "boston", "type": "mexican"}',NULL,19);
INSERT INTO "records" VALUES('r22','{"name": "mountain orchid kitchen", "address": "547 north canal road", "city": "chicago", "type": "french"}',NULL,20);
INSERT INTO "records" VALUES('r23','{"name": "sunny rose steakhouse", "address": "4923 west hill drive", "city": "atlanta", "type": "mexican"}',NULL,21);
INSERT INTO "records" VALUES('r24','{"name": "old lotus bistro", "address": "9293 ventura street", "city": "denver", "type": "vegetarian"}',NULL,22);
INSERT INTO "records" VALUES('r25','{"name": "silver table cafe", "address": "3970 south hill street", "city": "seattle", "type": "steakhouse"}',NULL,23);
INSERT INTO "records" VALUES('r26','{"name": "new willow house", "address": "6034 west maple avenue", "city": "los angeles", "type": "french"}',NULL,24);
INSERT INTO "records" VALUES('r27','{"name": "new dragon steakhouse", "address": "6140 south maple place", "city": "seattle", "type": "chinese"}',NULL,25);
INSERT INTO "records" VALUES('r28','{"name": "corner kettle trattoria", "address": "6577 south hill drive", "city": "chicago", "type": "mediterranean"}',NULL,26);
INSERT INTO "records" VALUES('r29','{"name": "happy hearth restaurant", "address": "5184 north sunset place", "city": "los angeles", "type": "bbq"}',NULL,27);
INSERT INTO "records" VALUES('r30','{"name": "uptown lantern trattoria", "address": "2416 east oak place", "city": "new york", "type": "italian"}',NULL,28);
CREATE TABLE tokens (
    token TEXT PRIMARY KEY,
    col   INTEGER NOT NULL UNIQUE
);
INSERT INTO "tokens" VALUES('1256',0);
INSERT INTO "tokens" VALUES('1868',1);
INSERT INTO "tokens" VALUES('2308',2);
INSERT INTO "tokens" VALUES('2334',3);
INSERT INTO "tokens" VALUES('3012',4);
INSERT INTO "tokens" VALUES('4491',5);
INSERT INTO "tokens" VALUES('5064',6);
INSERT INTO "tokens" VALUES('5341',7);
INSERT INTO "tokens" VALUES('7794',8);
INSERT INTO "tokens" VALUES('8033',9);
INSERT INTO "tokens" VALUES('8154',10);
INSERT INTO "tokens" VALUES('8620',11);
INSERT INTO "tokens" VALUES('9293',12);
INSERT INTO "tokens" VALUES('american',13);
INSERT INTO "tokens" VALUES('anchor',14);
INSERT INTO "tokens" VALUES('angeles',15);
INSERT INTO "tokens" VALUES('avenue',16);
INSERT INTO "tokens" VALUES('bar',17);
INSERT INTO "tokens" VALUES('bbq',18);
INSERT INTO "tokens" VALUES('bistro',19);
INSERT INTO "tokens" VALUES('blue',20);
INSERT INTO "tokens" VALUES('boston',21);
INSERT INTO "tokens" VALUES('boulevard',22);
INSERT INTO "tokens" VALUES('bzsil',23);
INSERT INTO "tokens" VALUES('canal',24);
INSERT INTO "tokens" VALUES('chicago',25);
INSERT INTO "tokens" VALUES('chinese',26);
INSERT INTO "tokens" VALUES('columbus',27);
INSERT INTO "tokens" VALUES('corner',28);
INSERT INTO "tokens" VALUES('denver',29);
INSERT INTO "tokens" VALUES('diner',30);
INSERT INTO "tokens" VALUES('dr',31);
INSERT INTO "tokens" VALUES('drive',32);
INSERT INTO "tokens" VALUES('east',33);
INSERT INTO "tokens" VALUES('eatery',34);
INSERT INTO "tokens" VALUES('fork',35);
INSERT INTO "tokens" VALUES('francisco',36);
INSERT INTO "tokens" VALUES('french',37);
INSERT INTO "tokens" VALUES('golden',38);
INSERT INTO "tokens" VALUES('green',39);
INSERT INTO "tokens" VALUES('grill',40);
INSERT INTO "tokens" VALUES('harbor',41);
INSERT INTO "tokens" VALUES('houston',42);
INSERT INTO "tokens" VALUES('indian',43);
INSERT INTO "tokens" VALUES('japanese',44);
INSERT INTO "tokens" VALUES('kitchen',45);
INSERT INTO "tokens" VALUES('lantern',46);
INSERT INTO "tokens" VALUES('lexington',47);
INSERT INTO "tokens" VALUES('little',48);
INSERT INTO "tokens" VALUES('los',49);
INSERT INTO "tokens" VALUES('lotus',50);
INSERT INTO "tokens" VALUES('main',51);
INSERT INTO "tokens" VALUES('market',52);
INSERT INTO "tokens" VALUES('mediterranean',53);
INSERT INTO "tokens" VALUES('mexican',54);
INSERT INTO "tokens" VALUES('miami',55);
INSERT INTO "tokens" VALUES('mission',56);
INSERT INTO "tokens" VALUES('new',57);
INSERT INTO "tokens" VALUES('noodle',58);
INSERT INTO "tokens" VALUES('north',59);
INSERT INTO "tokens" VALUES('oak',60);
INSERT INTO "tokens" VALUES('ocean',61);
INSERT INTO "tokens" VALUES('oedar',62);
INSERT INTO "tokens" VALUES('old',63);
INSERT INTO "tokens" VALUES('park',64);
INSERT INTO "tokens" VALUES('pizza',65);
INSERT INTO "tokens" VALUES('road',66);
INSERT INTO "tokens" VALUES('rose',67);
INSERT INTO "tokens" VALUES('s',68);
INSERT INTO "tokens" VALUES('san',69);
INSERT INTO "tokens" VALUES('seattle',70);
INSERT INTO "tokens" VALUES('silver',71);
INSERT INTO "tokens" VALUES('south',72);
INSERT INTO "tokens" VALUES('spoon',73);
INSERT INTO "tokens" VALUES('spring',74);
INSERT INTO "tokens" VALUES('st',75);
INSERT INTO "tokens" VALUES('steakhouse',76);
INSERT INTO "tokens" VALUES('stove',77);
INSERT INTO "tokens" VALUES('street',78);
INSERT INTO "tokens" VALUES('terrace',79);
INSERT INTO "tokens" VALUES('thai',80);
INSERT INTO "tokens" VALUES('trattoria',81);
INSERT INTO "tokens" VALUES('uptown',82);
INSERT INTO "tokens" VALUES('vegetarian',83);
INSERT INTO "tokens" VALUES('ventura',84);
INSERT INTO "tokens" VALUES('west',85);
INSERT INTO "tokens" VALUES('willow',86);
INSERT INTO "tokens" VALUES('wilshire',87);
INSERT INTO "tokens" VALUES('york',88);
INSERT INTO "tokens" VALUES('1586',89);
INSERT INTO "tokens" VALUES('2416',90);
INSERT INTO "tokens" VALUES('2j08',91);
INSERT INTO "tokens" VALUES('3970',92);
INSERT INTO "tokens" VALUES('4923',93);
INSERT INTO "tokens" VALUES('5184',94);
INSERT INTO "tokens" VALUES('547',95);
INSERT INTO "tokens" VALUES('5596',96);
INSERT INTO "tokens" VALUES('6034',97);
INSERT INTO "tokens" VALUES('6140',98);
INSERT INTO "tokens" VALUES('6215',99);
INSERT INTO "tokens" VALUES('6577',100);
INSERT INTO "tokens" VALUES('7899',101);
INSERT INTO "tokens" VALUES('8873',102);
INSERT INTO "tokens" VALUES('atlanta',103);
INSERT INTO "tokens" VALUES('ave',104);
INSERT INTO "tokens" VALUES('cafe',105);
INSERT INTO "tokens" VALUES('dragon',106);
INSERT INTO "tokens" VALUES('firk',107);
INSERT INTO "tokens" VALUES('happy',108);
INSERT INTO "tokens" VALUES('hearth',109);
INSERT INTO "tokens" VALUES('hill',110);
INSERT INTO "tokens" VALUES('house',111);
INSERT INTO "tokens" VALUES('italian',112);
INSERT INTO "tokens" VALUES('kettle',113);
INSERT INTO "tokens" VALUES('lucky',114);
INSERT INTO "tokens" VALUES('maple',115);
INSERT INTO "tokens" VALUES('melrose',116);
INSERT INTO "tokens" VALUES('mountain',117);
INSERT INTO "tokens" VALUES('n',118);
INSERT INTO "tokens" VALUES('orchid',119);
INSERT INTO "tokens" VALUES('place',120);
INSERT INTO "tokens" VALUES('restaurant',121);
INSERT INTO "tokens" VALUES('sunny',122);
INSERT INTO "tokens" VALUES('sunset',123);
INSERT INTO "tokens" VALUES('table',124);
INSERT INTO "tokens" VALUES('union',125);
INSERT INTO "tokens" VALUES('village',126);
INSERT INTO "tokens" VALUES('wes',127);
CREATE INDEX records_arrival ON records(arrival);
DELETE FROM "sqlite_sequence";
INSERT INTO "sqlite_sequence" VALUES('csr_chunks',1);
INSERT INTO "sqlite_sequence" VALUES('assignment_seconds',8);
COMMIT;
